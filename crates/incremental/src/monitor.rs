//! The violation monitor: incremental `G ⊨ Σ` maintenance.
//!
//! §4.1 introduces pivots precisely for data locality: "for any `v` in
//! graph `G`, if there exists a match `h` of `Q` in `G` such that
//! `h(z) = v`, then `h(x̄)` consists of only nodes in the `d_Q`-neighbor
//! of `v`", where `d_Q` is the pattern's radius at the pivot. The monitor
//! turns that observation into incremental validation:
//!
//! 1. applying an update batch touches a node set `T`;
//! 2. any match gained or lost — or whose literal values changed — must
//!    contain a touched node, so its pivot lies within `d_Q` (undirected)
//!    hops of `T` in the pre- or post-update graph;
//! 3. re-matching is therefore restricted to pivots in
//!    `BFS(G_old, T, d_Q) ∪ BFS(G_new, T, d_Q)` — everything else keeps
//!    its stored violation status.
//!
//! Most curation batches only set or remove attributes. Such a batch is
//! patched into the monitor's [`Graph`] in place, and because the topology
//! did not move, `G_old` and `G_new` have the same distances: one bounded
//! BFS from `T` finds every affected pivot, and a write costs its touched
//! neighbourhood rather than `|G|`. A batch that adds nodes or adds or
//! removes edges rebuilds the graph through [`GraphState`] and runs the
//! BFS on both sides.
//!
//! The monitor accepts base GFDs and extended GFDs (`gfd-extended`) in
//! one rule set, and reports per-batch deltas (violations introduced and
//! repaired), which is what a knowledge-base curation pipeline consumes.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use gfd_core::BoundValidator;
use gfd_extended::XGfd;
use gfd_graph::{Graph, NodeId};
use gfd_logic::Gfd;
use gfd_pattern::{CompiledPattern, MatcherScratch, PLabel, Pattern};

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
    /// Pivot candidates re-checked (the work incrementality saves is
    /// `total pivots − affected pivots` match enumerations).
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

/// Multi-source undirected BFS, bounded at `depth`: every node within
/// `depth` hops of a source, with its distance, in visit order. Sources
/// outside the graph's node range are ignored (they exist only on the
/// other side of the update). Costs the reached neighbourhood, not `|V|`.
fn bounded_bfs(g: &Graph, sources: &[NodeId], depth: usize) -> Vec<(NodeId, u32)> {
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut reached: Vec<(NodeId, u32)> = Vec::new();
    for &s in sources {
        if s.index() < g.node_count() && seen.insert(s) {
            reached.push((s, 0));
        }
    }
    let mut head = 0;
    while let Some(&(v, d)) = reached.get(head) {
        head += 1;
        if d as usize >= depth {
            continue;
        }
        for &u in g.out_nbrs(v).iter().chain(g.in_nbrs(v)) {
            if seen.insert(u) {
                reached.push((u, d + 1));
            }
        }
    }
    reached
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

/// Demand-path counters: how monitor queries were routed and what they
/// cost. All values are pure functions of the input sequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Per-pivot bound queries answered (one per `(rule, pivot)` probe).
    pub bound_queries: u64,
    /// Times a batch crossed the crossover heuristic and fell back to a
    /// full per-rule re-enumeration.
    pub bound_fallbacks: u64,
    /// Deterministic memory-touch meter of the bound literal evaluation
    /// (see [`BoundValidator::work`]).
    pub validation_work: u64,
    /// Plans recompiled (fingerprint misses) across construction and
    /// catalog refreshes.
    pub plans_compiled: u64,
    /// Plans served from the fingerprint cache instead of recompiling.
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

/// When a batch's affected-pivot set grows past this fraction of the
/// pivot's whole label class, the per-pivot bound path stops paying for
/// its set bookkeeping and the monitor falls back to one full
/// re-enumeration of the rule.
const FALLBACK_NUM: usize = 1;
const FALLBACK_DEN: usize = 2;

/// Incrementally maintained violation sets for a rule set over an
/// evolving graph.
pub struct ViolationMonitor {
    rules: Vec<MonitorRule>,
    /// Per rule: the pattern compiled once and reused for every
    /// re-validation pass (plans are graph-independent). `Arc`-shared with
    /// `plan_cache` so a catalog refresh reuses unchanged rules' plans.
    compiled: Vec<Arc<CompiledPattern>>,
    /// Compiled plans keyed by rule fingerprint — survives catalog
    /// refreshes, so re-registering an unchanged rule costs a map lookup,
    /// not a plan compilation.
    plan_cache: BTreeMap<String, Arc<CompiledPattern>>,
    radii: Vec<Option<usize>>,
    graph: Graph,
    /// Per rule: violating matches keyed `(pivot image, match)`, so the
    /// violations pivoted at one node are one contiguous range.
    violations: Vec<BTreeSet<(NodeId, Vec<NodeId>)>>,
    stats: MonitorStats,
}

/// Deterministic plan-cache key: the rule's full structural debug form
/// (pattern, literals, thresholds) — identical rules collide, any change
/// misses.
fn rule_fingerprint(rule: &MonitorRule) -> String {
    format!("{rule:?}")
}

impl ViolationMonitor {
    /// Builds the monitor over its own copy of `g` with a full initial
    /// validation pass.
    pub fn new(g: &Graph, rules: Vec<MonitorRule>) -> ViolationMonitor {
        let mut mon = ViolationMonitor {
            rules: Vec::new(),
            compiled: Vec::new(),
            plan_cache: BTreeMap::new(),
            radii: Vec::new(),
            graph: g.clone(),
            violations: Vec::new(),
            stats: MonitorStats::default(),
        };
        mon.install_rules(rules);
        mon
    }

    /// Replaces the monitored rule set and revalidates. Plans for rules
    /// whose fingerprint is already cached (unchanged across the refresh)
    /// are reused instead of recompiled.
    pub fn refresh_catalog(&mut self, rules: Vec<MonitorRule>) {
        self.install_rules(rules);
    }

    fn install_rules(&mut self, rules: Vec<MonitorRule>) {
        self.radii = rules.iter().map(|r| r.pattern().radius()).collect();
        self.compiled = rules
            .iter()
            .map(|r| {
                let key = rule_fingerprint(r);
                if let Some(cp) = self.plan_cache.get(&key) {
                    self.stats.plan_cache_hits += 1;
                    Arc::clone(cp)
                } else {
                    self.stats.plans_compiled += 1;
                    let cp = Arc::new(CompiledPattern::new(r.pattern()));
                    self.plan_cache.insert(key, Arc::clone(&cp));
                    cp
                }
            })
            .collect();
        self.violations = Vec::with_capacity(rules.len());
        for (rule, cp) in rules.iter().zip(&self.compiled) {
            let pivot = rule.pattern().pivot();
            let mut set = BTreeSet::new();
            let _ = cp.matcher(&self.graph).for_each(|m| {
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

    /// Demand-path routing and work counters.
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
            let violations: Vec<Vec<NodeId>> = match rule {
                MonitorRule::Base(gfd) => {
                    let mut ms = gfd_pattern::MatchSet::new(gfd.pattern().node_count());
                    validator.violations_at(gfd, &self.compiled[i], v, &mut ms);
                    ms.iter().map(<[NodeId]>::to_vec).collect()
                }
                MonitorRule::Extended(_) => {
                    let mut found = Vec::new();
                    let mut matcher = self.compiled[i].matcher(&self.graph);
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
    /// that adds nodes or adds or removes edges rebuilds it.
    ///
    /// # Panics
    /// Panics, before applying any op, if an op names a node that does
    /// not exist when it applies (see [`UpdateBatch::add_node`] for the
    /// ids a batch's own node additions receive).
    pub fn apply(&mut self, batch: &UpdateBatch) -> ViolationDelta {
        check_node_ids(batch, self.graph.node_count());
        let max_radius = self.radii.iter().filter_map(|r| *r).max().unwrap_or(0);
        let attr_only = batch
            .ops()
            .iter()
            .all(|u| matches!(u, Update::SetAttr { .. } | Update::RemoveAttr { .. }));
        // Nodes within `max_radius` hops of the touched set in the pre- or
        // post-update graph, each with its smaller distance.
        let reached = if attr_only {
            let mut touched = Vec::with_capacity(batch.len());
            for u in batch.ops() {
                match *u {
                    Update::SetAttr { node, attr, value } => {
                        self.graph.set_attr_by_id(node, attr, value);
                        touched.push(node);
                    }
                    Update::RemoveAttr { node, attr } => {
                        self.graph.remove_attr_by_id(node, attr);
                        touched.push(node);
                    }
                    _ => unreachable!("attribute-only batch"),
                }
            }
            touched.sort_unstable();
            touched.dedup();
            bounded_bfs(&self.graph, &touched, max_radius)
        } else {
            let mut state = GraphState::from_graph(&self.graph);
            let touched = state.apply_batch(batch);
            let new_graph = state.freeze();
            let mut reached = bounded_bfs(&self.graph, &touched, max_radius);
            reached.extend(bounded_bfs(&new_graph, &touched, max_radius));
            reached.sort_unstable();
            reached.dedup_by_key(|&mut (v, _)| v);
            self.graph = new_graph;
            reached
        };
        let graph = &self.graph;

        let mut delta = ViolationDelta::default();
        let mut affected_total = 0usize;
        let mut scratch = MatcherScratch::new();

        for (i, rule) in self.rules.iter().enumerate() {
            let q = rule.pattern();
            let pivot = q.pivot();
            let pivot_label = q.node_label(pivot);
            // Size of the pivot's whole label class — the cost of a full
            // re-enumeration, and the denominator of the crossover test.
            let class_size = match pivot_label {
                PLabel::Is(l) => graph.nodes_with_label(l).len(),
                PLabel::Wildcard => graph.node_count(),
            };
            // Affected pivot candidates for this rule's radius. A pattern
            // without a finite radius (disconnected — excluded by §4 but
            // tolerated here) always takes the full path.
            let affected: Option<Vec<NodeId>> = match self.radii[i] {
                Some(dq) => {
                    let candidates: Vec<NodeId> = reached
                        .iter()
                        .filter(|&&(v, d)| {
                            d as usize <= dq && pivot_label.admits(graph.node_label(v))
                        })
                        .map(|&(v, _)| v)
                        .collect();
                    // Crossover: once the touched neighbourhood covers a
                    // large fraction of the label class, per-pivot probing
                    // plus stale-set bookkeeping costs more than one full
                    // sweep of the class.
                    if candidates.len() * FALLBACK_DEN > class_size * FALLBACK_NUM {
                        None
                    } else {
                        Some(candidates)
                    }
                }
                None => None,
            };

            // Re-enumerate matches anchored at affected pivots (bound
            // path), or the whole label class (fallback), reusing the
            // rule's compiled plan and one set of scratch buffers.
            let mut fresh: BTreeSet<(NodeId, Vec<NodeId>)> = BTreeSet::new();
            let mut matcher = self.compiled[i].matcher_from(graph, scratch);
            let mut sink = |m: &[NodeId]| {
                if !rule.match_satisfies(m, graph) {
                    fresh.insert((m[pivot], m.to_vec()));
                }
                ControlFlow::Continue(())
            };
            match &affected {
                Some(pivots) => {
                    self.stats.bound_queries += pivots.len() as u64;
                    for &v in pivots {
                        let _ = matcher.for_each_at(v, &mut sink);
                    }
                }
                None => {
                    self.stats.bound_fallbacks += 1;
                    let _ = matcher.for_each(&mut sink);
                }
            }
            scratch = matcher.into_scratch();
            affected_total += affected.as_ref().map_or(class_size, Vec::len);

            // Stored violations whose pivot is affected are stale (all of
            // them, after a full re-enumeration).
            let stored = &mut self.violations[i];
            let stale: BTreeSet<(NodeId, Vec<NodeId>)> = match &affected {
                Some(pivots) => {
                    let stale: BTreeSet<_> = pivots
                        .iter()
                        .flat_map(|&v| {
                            stored
                                .range((v, Vec::new())..)
                                .take_while(move |(p, _)| *p == v)
                        })
                        .cloned()
                        .collect();
                    for key in &stale {
                        stored.remove(key);
                    }
                    stale
                }
                None => std::mem::take(stored),
            };

            // A violation that persists through the batch is neither added
            // nor removed. Deltas list matches in match order.
            let mut rd = RuleDelta {
                added: fresh.difference(&stale).map(|(_, m)| m.clone()).collect(),
                removed: stale.difference(&fresh).map(|(_, m)| m.clone()).collect(),
            };
            rd.added.sort_unstable();
            rd.removed.sort_unstable();
            stored.extend(fresh);
            delta.per_rule.push(rd);
        }

        delta.affected_pivots = affected_total;
        delta
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
        // Adding an unrelated attribute changes nothing.
        let name = g.interner().attr("name");
        let mut batch = UpdateBatch::new();
        batch.set_attr(NodeId::from_index(0), name, Value::Int(1));
        let delta = mon.apply(&batch);
        assert!(delta.is_unchanged());
        assert!(mon.is_clean());
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
        // Radius of a single-edge pattern is 1: only the touched person and
        // its neighbourhood are candidate pivots, not all 6 persons.
        assert!(delta.affected_pivots <= 2, "{}", delta.affected_pivots);
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

    /// A catalog refresh with unchanged rules hits the plan cache instead
    /// of recompiling; changed rules compile exactly once.
    #[test]
    fn refresh_catalog_reuses_cached_plans() {
        let (g, rules) = fixture();
        let mut mon = ViolationMonitor::new(&g, rules.clone());
        assert_eq!(mon.stats().plans_compiled, 1);
        assert_eq!(mon.stats().plan_cache_hits, 0);

        mon.refresh_catalog(rules.clone());
        assert_eq!(mon.stats().plans_compiled, 1);
        assert_eq!(mon.stats().plan_cache_hits, 1);

        // A genuinely new rule compiles; the unchanged one still hits.
        let person = PLabel::Is(g.interner().lookup_label("person").unwrap());
        let create = PLabel::Is(g.interner().lookup_label("create").unwrap());
        let product = PLabel::Is(g.interner().lookup_label("product").unwrap());
        let ty = g.interner().lookup_attr("type").unwrap();
        let extra = Gfd::new(
            Pattern::edge(person, create, product),
            vec![],
            Rhs::Lit(Literal::constant(1, ty, Value::Int(0))),
        );
        let mut both = rules;
        both.push(extra.into());
        mon.refresh_catalog(both);
        assert_eq!(mon.stats().plans_compiled, 2);
        assert_eq!(mon.stats().plan_cache_hits, 2);
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

    /// A batch touching most of the graph crosses the crossover heuristic
    /// and falls back to one full re-enumeration — with identical deltas.
    #[test]
    fn wide_batch_falls_back_to_full_path() {
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
        assert_eq!(mon.stats().bound_fallbacks, 1);
        assert_eq!(delta.affected_pivots, 6);
    }
}
