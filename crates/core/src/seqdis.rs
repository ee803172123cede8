//! `SeqDis` — sequential GFD mining (§5.1).
//!
//! The algorithm interleaves two levelwise processes over the generation
//! tree: **vertical spawning** (grow patterns one edge at a time, verify
//! their matches by incremental join with the parent's matches) and
//! **horizontal spawning** (mine premise sets per pattern over the match
//! table). Negative GFDs are discovered in the same pass: zero-match
//! spawned patterns become `Q'(∅ → false)` (`NVSpawn`), and verified
//! positives spawn `Q(X ∪ {l'} → false)` candidates (`NHSpawn`).
//!
//! Pruning (Lemma 4) cuts trivial, non-reduced, and infrequent candidates;
//! disabling it (`cfg.enable_pruning = false`) reproduces the `ParGFDn`
//! ablation that the paper reports as infeasible.
//!
//! The schedule itself is [`crate::driver::Driver`]'s; this module is its
//! inline executor. A match set lives only while a later step reads it: a
//! rejected child's rows go right after its join, a level's parents' rows
//! when the level is done, and one match table is built at a time.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use gfd_graph::{AttrId, FxHashMap, Graph};
use gfd_pattern::{extend_matches, MatchSet, PLabel};

use crate::catalog::LiteralCatalog;
use crate::config::DiscoveryConfig;
use crate::driver::{Driver, Executor, Joined, MineJob, MineOutcome, Mined, Spawn};
use crate::gentree::GenTree;
use crate::hspawn::{mine_dependencies_with, CandidateEvaluator, TableEvaluator};
use crate::result::DiscoveryResult;
use crate::support::distinct_pivots;
use crate::table::MatchTable;
use crate::vspawn::{harvest_range_cached, RawHarvest, SignatureCache};

/// Runs sequential discovery (`SeqDis` of `SeqDisGFD`).
pub fn seq_dis(g: &Graph, cfg: &DiscoveryConfig) -> DiscoveryResult {
    let driver = Driver::new(g, cfg);
    let mut exec = Inline {
        g,
        cfg,
        attrs: cfg.resolve_active_attrs(g),
        live: FxHashMap::default(),
        sig_cache: SignatureCache::default(),
    };
    let Ok(result) = driver.run(&mut exec, 0);
    result
}

/// Every operation runs in this thread over the whole graph.
struct Inline<'a> {
    g: &'a Graph,
    cfg: &'a DiscoveryConfig,
    attrs: Vec<AttrId>,
    /// Matches of every frequent pattern a later step still reads.
    live: FxHashMap<usize, MatchSet>,
    /// Node-signature summaries memoise across every pattern of the run —
    /// the graph is frozen, so they never invalidate.
    sig_cache: SignatureCache,
}

impl Executor for Inline<'_> {
    type Error = Infallible;

    fn seed_roots(
        &mut self,
        tree: &GenTree,
        roots: &[usize],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), Infallible> {
        for &id in roots {
            let mut ms = MatchSet::new(1);
            match tree.node(id).pattern.node_label(0) {
                PLabel::Is(label) => {
                    for &n in self.g.nodes_with_label(label) {
                        ms.push(&[n]);
                    }
                }
                PLabel::Wildcard => {
                    for n in self.g.nodes() {
                        ms.push(&[n]);
                    }
                }
            }
            // Arity-1 matches: the pivots are the nodes.
            let rows = ms.len();
            if keep(Joined {
                rows,
                support: rows,
            }) {
                self.live.insert(id, ms);
            }
        }
        Ok(())
    }

    fn harvest(&mut self, tree: &GenTree, parent: usize) -> Result<RawHarvest, Infallible> {
        let (q, ms) = (&tree.node(parent).pattern, &self.live[&parent]);
        let raw = harvest_range_cached(q, ms, self.g, self.cfg, 0, ms.len(), &mut self.sig_cache);
        Ok(raw)
    }

    fn join(
        &mut self,
        tree: &GenTree,
        spawns: &[Spawn],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), Infallible> {
        for s in spawns {
            let pms = &self.live[&s.parent];
            let ms = extend_matches(&tree.node(s.parent).pattern, pms, &s.ext, self.g);
            let support = distinct_pivots(&ms, tree.node(s.child).pattern.pivot());
            if keep(Joined {
                rows: ms.len(),
                support,
            }) {
                self.live.insert(s.child, ms);
            }
        }
        Ok(())
    }

    fn mine(
        &mut self,
        tree: &GenTree,
        jobs: Vec<MineJob>,
        _harvest_next: bool,
    ) -> Result<Mined, Infallible> {
        let mut outcomes = Vec::with_capacity(jobs.len());
        let mut catalog_time = Duration::ZERO;
        for job in jobs {
            let t0 = Instant::now();
            let ms = &self.live[&job.node];
            let table = MatchTable::build(&tree.node(job.node).pattern, ms, self.g, &self.attrs);
            let catalog = LiteralCatalog::harvest_capped(
                &table,
                self.cfg.values_per_attr,
                self.cfg.sigma.min(job.rows),
                self.cfg.max_catalog_literals,
            );
            catalog_time += t0.elapsed();
            let mut covered = job.covered;
            let mut eval = TableEvaluator::new(&table);
            let (deps, hstats) =
                mine_dependencies_with(&mut eval, &catalog, &mut covered, self.cfg);
            outcomes.push(MineOutcome {
                deps,
                covered,
                hstats,
                work: eval.work(),
            });
        }
        Ok(Mined {
            outcomes,
            catalog_time,
        })
    }

    fn level_done(&mut self, driver: &Driver<'_>, level: usize) -> Result<(), Infallible> {
        self.live
            .retain(|&id, _| driver.tree.node(id).level >= level);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{GraphBuilder, Value};
    use gfd_logic::{Literal, Rhs};

    /// A KB where: every film *creator* is a producer (planted φ1 — not
    /// universal: idle actors exist, so the rule needs the `create`
    /// topology); parents are never mutual (planted φ3 negative).
    #[allow(clippy::needless_range_loop)]
    fn kb() -> Graph {
        let mut b = GraphBuilder::new();
        let mut people = Vec::new();
        for i in 0..12 {
            let p = b.add_node("person");
            b.set_attr(p, "type", "producer");
            b.set_attr(p, "surname", ["smith", "jones", "brown"][i % 3]);
            people.push(p);
        }
        // Actors who create nothing: x.type=producer is false at the root.
        for i in 0..6 {
            let p = b.add_node("person");
            b.set_attr(p, "type", "actor");
            b.set_attr(p, "surname", ["smith", "jones", "brown"][i % 3]);
        }
        for i in 0..12 {
            let f = b.add_node("product");
            b.set_attr(f, "type", "film");
            b.add_edge(people[i], f, "create");
        }
        // A parent chain among producers (never mutual).
        for w in people.windows(2) {
            b.add_edge(w[0], w[1], "parent");
        }
        b.build()
    }

    fn cfg() -> DiscoveryConfig {
        let mut c = DiscoveryConfig::new(3, 4);
        c.max_lhs_size = 1;
        c.wildcard_min_labels = 0;
        c.values_per_attr = 4;
        c
    }

    #[test]
    fn discovers_planted_positive_rule() {
        let g = kb();
        let result = seq_dis(&g, &cfg());
        let i = g.interner();
        let ty = i.lookup_attr("type").unwrap();
        let film = Value::Str(i.lookup_symbol("film").unwrap());
        let producer = Value::Str(i.lookup_symbol("producer").unwrap());
        // Expect person-create->product (film → producer) or the
        // ∅-premise variant (since all persons here are producers).
        let found = result.gfds.iter().any(|d| {
            d.gfd.is_positive()
                && d.gfd.pattern().edge_count() == 1
                && d.gfd.rhs() == Rhs::Lit(Literal::constant(0, ty, producer))
                && (d.gfd.lhs().is_empty() || d.gfd.lhs() == [Literal::constant(1, ty, film)])
        });
        assert!(
            found,
            "rules: {:?}",
            result
                .gfds
                .iter()
                .map(|d| d.gfd.display(i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn discovers_negative_mutual_parent() {
        let g = kb();
        let result = seq_dis(&g, &cfg());
        let i = g.interner();
        let parent = i.lookup_label("parent").unwrap();
        let neg = result.gfds.iter().find(|d| {
            d.gfd.is_negative()
                && d.gfd.lhs().is_empty()
                && d.gfd.pattern().edge_count() == 2
                && d.gfd
                    .pattern()
                    .edges()
                    .iter()
                    .all(|e| e.label == PLabel::Is(parent))
                && d.gfd.pattern().edges_between(0, 1).len() == 1
                && d.gfd.pattern().edges_between(1, 0).len() == 1
        });
        assert!(
            neg.is_some(),
            "rules: {:?}",
            result
                .gfds
                .iter()
                .map(|d| d.gfd.display(i))
                .collect::<Vec<_>>()
        );
        assert!(neg.unwrap().support >= 4);
    }

    #[test]
    fn supports_respect_sigma() {
        let g = kb();
        let c = cfg();
        let result = seq_dis(&g, &c);
        assert!(result.gfds.iter().all(|d| d.support >= c.sigma));
    }

    #[test]
    fn no_trivial_rules_emitted() {
        let g = kb();
        let result = seq_dis(&g, &cfg());
        assert!(result.gfds.iter().all(|d| !d.gfd.is_trivial()));
    }

    #[test]
    fn discovered_rules_hold_on_the_graph() {
        let g = kb();
        let result = seq_dis(&g, &cfg());
        for d in &result.gfds {
            assert!(
                gfd_logic::satisfies(&g, &d.gfd),
                "violated: {}",
                d.gfd.display(g.interner())
            );
        }
    }

    #[test]
    fn k_bound_respected() {
        let g = kb();
        let mut c = cfg();
        c.k = 2;
        let result = seq_dis(&g, &c);
        assert!(result.gfds.iter().all(|d| d.gfd.k() <= 2));
    }

    #[test]
    fn sigma_monotonicity_of_output() {
        let g = kb();
        let mut lo = cfg();
        lo.sigma = 4;
        let mut hi = cfg();
        hi.sigma = 12;
        let more = seq_dis(&g, &lo);
        let fewer = seq_dis(&g, &hi);
        assert!(fewer.gfds.len() <= more.gfds.len());
    }

    #[test]
    fn stats_are_populated() {
        let g = kb();
        let result = seq_dis(&g, &cfg());
        assert!(result.stats.patterns_spawned > 0);
        assert!(result.stats.patterns_verified > 0);
        assert!(result.stats.hspawn.candidates > 0);
        assert_eq!(
            result.stats.positive + result.stats.negative,
            result.gfds.len()
        );
    }
}
