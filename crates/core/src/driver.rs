//! The levelwise discovery schedule shared by every runtime (§5.1, §6.2).
//!
//! `SeqDis` and `ParDis` walk the same generation tree in the same order:
//! the single-node roots, then one level of spawned patterns at a time.
//! The [`Driver`] owns every decision of that walk:
//!
//! * root selection (σ-frequent labels plus the wildcard root) and the
//!   level loop;
//! * insertion with `iso(Q)` dedup and the `max_patterns_per_level` cap;
//! * each child's verdict — empty, over `max_matches_per_pattern`,
//!   infrequent, or frequent;
//! * covered-set inheritance, `NVSpawn`, the negative minimality filter
//!   and emission order;
//! * the schedule counters of [`DiscoveryStats`].
//!
//! An [`Executor`] owns the data. It seeds the roots, hands over a
//! parent's raw harvest, joins a level's fresh children, mines a level's
//! verified patterns, and hears when a level is done. `SeqDis`
//! ([`crate::seqdis`]) runs these operations inline; `gfd-parallel` runs
//! them as work-stealing waves or barrier broadcasts. Every runtime emits
//! the same rules, supports and counters in the same order by
//! construction.

use std::time::{Duration, Instant};

use gfd_graph::{triple_stats, Graph, TripleStat};
use gfd_logic::{Gfd, Rhs};
use gfd_pattern::{is_embedded, Extension, PLabel, Pattern};

use crate::config::DiscoveryConfig;
use crate::gentree::{GenTree, Inserted, NodeState};
use crate::hspawn::{Covered, HSpawnStats, MinedDependency};
use crate::result::{peak_rss_bytes, DiscoveredGfd, DiscoveryResult, DiscoveryStats};
use crate::vspawn::{proposals_from_harvest, propose_negative_extensions, RawHarvest};

/// A fresh positive child of the current level: its matches are the
/// parent's joined with one edge.
#[derive(Clone, Copy, Debug)]
pub struct Spawn {
    /// Parent node id.
    pub parent: usize,
    /// Child node id.
    pub child: usize,
    /// The single-edge extension.
    pub ext: Extension,
}

/// What the driver reads from a pattern's matches.
#[derive(Clone, Copy, Debug)]
pub struct Joined {
    /// Match rows.
    pub rows: usize,
    /// `supp(Q, G)`: distinct pivot images.
    pub support: usize,
}

/// A verified pattern queued for horizontal spawning.
#[derive(Debug)]
pub struct MineJob {
    /// Node id.
    pub node: usize,
    /// Its match rows.
    pub rows: usize,
    /// Covered signatures inherited from the primary parent (extensions
    /// preserve variable indices); empty for roots.
    pub covered: Vec<Covered>,
}

/// One pattern's lattice outcome.
#[derive(Debug)]
pub struct MineOutcome {
    /// Mined dependencies, in `mine_dependencies` order.
    pub deps: Vec<MinedDependency>,
    /// The inherited covered set extended with this pattern's satisfied
    /// signatures (passed down to children).
    pub covered: Vec<Covered>,
    /// Lattice counters.
    pub hstats: HSpawnStats,
}

/// The data-touching half of discovery. Each executor keeps the match
/// sets of the patterns a later operation still reads; the driver never
/// holds a row.
///
/// A cold run calls `seed_roots`, `mine` and `level_done(0)`; then, per
/// level, `harvest` once per frequent parent in tree order, one `join`,
/// one `mine` and `level_done(level)`. A resumed run starts at the level
/// after its checkpoint.
pub trait Executor {
    /// Failure of a runtime operation ([`std::convert::Infallible`] for
    /// inline execution).
    type Error;

    /// Materialises the matches of the single-node `roots`, in order, and
    /// calls `keep` once per root. A root whose `keep` is false needs no
    /// matches.
    fn seed_roots(
        &mut self,
        tree: &GenTree,
        roots: &[usize],
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), Self::Error>;

    /// Hands over `parent`'s raw extension harvest.
    fn harvest(
        &mut self,
        tree: &GenTree,
        parent: usize,
        stats: &mut DiscoveryStats,
    ) -> Result<RawHarvest, Self::Error>;

    /// Joins every spawn's parent matches with its extension and calls
    /// `keep` once per spawn, in order. A child whose `keep` is false is
    /// rejected, and its rows can go at once.
    fn join(
        &mut self,
        tree: &GenTree,
        spawns: &[Spawn],
        stats: &mut DiscoveryStats,
        keep: &mut dyn FnMut(Joined) -> bool,
    ) -> Result<(), Self::Error>;

    /// Mines the literal lattices of `jobs` and returns one outcome per
    /// job, in order. With `harvest_next` the jobs' patterns are the next
    /// level's parents, so their harvests may be prepared now.
    fn mine(
        &mut self,
        tree: &GenTree,
        jobs: Vec<MineJob>,
        harvest_next: bool,
        stats: &mut DiscoveryStats,
    ) -> Result<Vec<MineOutcome>, Self::Error>;

    /// Level `level` is emitted: only its own patterns' matches are read
    /// from here on.
    fn level_done(&mut self, driver: &Driver<'_>, level: usize) -> Result<(), Self::Error>;

    /// Adds the driver's own compute time to the executor's clock.
    fn charge_master(&mut self, _elapsed: Duration) {}
}

/// The levelwise schedule and its state: the generation tree, the rules
/// emitted so far, and the negative-pattern filter.
pub struct Driver<'a> {
    g: &'a Graph,
    cfg: &'a DiscoveryConfig,
    triples: Vec<TripleStat>,
    started: Instant,
    /// The generation tree.
    pub tree: GenTree,
    /// Rules emitted so far, and the run counters.
    pub result: DiscoveryResult,
    /// Patterns of emitted `Q(∅ → false)` negatives (minimality filter).
    pub negative_patterns: Vec<Pattern>,
}

impl<'a> Driver<'a> {
    /// A fresh schedule over `g`.
    pub fn new(g: &'a Graph, cfg: &'a DiscoveryConfig) -> Driver<'a> {
        let started = Instant::now();
        Driver {
            g,
            cfg,
            triples: triple_stats(g),
            started,
            tree: GenTree::new(),
            result: DiscoveryResult::default(),
            negative_patterns: Vec::new(),
        }
    }

    /// Runs the schedule from `from_level` to the level cap. Level 0 seeds
    /// the roots first; a run resumed from a checkpoint restores `result`,
    /// `negative_patterns` and the frontier ([`Driver::restore_frontier`])
    /// and enters at the level after it.
    pub fn run<E: Executor>(
        mut self,
        exec: &mut E,
        from_level: usize,
    ) -> Result<DiscoveryResult, E::Error> {
        if from_level == 0 {
            self.seed_roots(exec)?;
        }
        for level in from_level.max(1)..=self.cfg.level_cap() {
            if !self.level(exec, level)? {
                break;
            }
        }
        self.result.stats.positive = self.result.positive_count();
        self.result.stats.negative = self.result.negative_count();
        let stats = &mut self.result.stats;
        stats.total_time = self.started.elapsed();
        stats.peak_rss_bytes = peak_rss_bytes();
        stats.graph_bytes = self.g.build_stats().graph_bytes;
        stats.graph_reallocs = self.g.build_stats().builder_reallocs;
        Ok(self.result)
    }

    /// Restores a checkpointed frontier — one level's frequent patterns in
    /// tree order, with their supports and covered sets — and returns
    /// their node ids. Frontier patterns are pairwise non-isomorphic, so
    /// each opens its own node.
    pub fn restore_frontier(
        &mut self,
        frontier: impl IntoIterator<Item = (Pattern, usize, Vec<Covered>)>,
    ) -> Vec<usize> {
        frontier
            .into_iter()
            .map(|(pattern, support, covered)| {
                let id = self.tree.insert(pattern).id();
                let node = self.tree.node_mut(id);
                node.state = NodeState::Frequent;
                node.support = support;
                node.covered = covered;
                id
            })
            .collect()
    }

    /// Cold start (§5.1): single-node patterns for σ-frequent labels, plus
    /// the wildcard root when upgrades are enabled.
    fn seed_roots<E: Executor>(&mut self, exec: &mut E) -> Result<(), E::Error> {
        let t0 = Instant::now();
        let (g, cfg) = (self.g, self.cfg);
        let labels = g.node_label_frequencies();
        let wildcard = cfg.wildcard_min_labels > 0
            && cfg.wildcard_root
            && labels.len() >= cfg.wildcard_min_labels
            && g.node_count() >= cfg.sigma;
        let roots = labels
            .into_iter()
            .filter(|&(_, count)| count as usize >= cfg.sigma || !cfg.enable_pruning)
            .map(|(label, _)| PLabel::Is(label))
            .chain(wildcard.then_some(PLabel::Wildcard));
        let mut ids = Vec::new();
        for label in roots {
            if let Inserted::Fresh(id) = self.tree.insert(Pattern::single(label)) {
                ids.push(id);
            }
        }
        exec.charge_master(t0.elapsed());

        let mut seeded = Vec::with_capacity(ids.len());
        exec.seed_roots(&self.tree, &ids, &mut |j| {
            let frequent = j.support >= cfg.sigma || !cfg.enable_pruning;
            seeded.push((j, frequent));
            frequent
        })?;
        let mut jobs = Vec::new();
        for (&id, (j, frequent)) in ids.iter().zip(seeded) {
            let node = self.tree.node_mut(id);
            node.support = j.support;
            node.state = if frequent {
                NodeState::Frequent
            } else {
                NodeState::Infrequent
            };
            if frequent {
                self.result.stats.patterns_verified += 1;
                jobs.push(MineJob {
                    node: id,
                    rows: j.rows,
                    covered: Vec::new(),
                });
            }
        }
        let mined: Vec<usize> = jobs.iter().map(|j| j.node).collect();
        let outcomes = exec.mine(&self.tree, jobs, true, &mut self.result.stats)?;
        for (id, o) in mined.into_iter().zip(outcomes) {
            self.emit_mined(id, o);
        }
        exec.level_done(self, 0)
    }

    /// One level: insert every frequent parent's children, join them,
    /// mine the verified ones, and emit in spawn order. Returns false when
    /// the previous level left no frequent parent.
    fn level<E: Executor>(&mut self, exec: &mut E, level: usize) -> Result<bool, E::Error> {
        let cfg = self.cfg;
        let parents: Vec<usize> = self
            .tree
            .level(level - 1)
            .iter()
            .copied()
            .filter(|&id| self.tree.node(id).state == NodeState::Frequent)
            .collect();
        if parents.is_empty() {
            return Ok(false);
        }

        // Per parent: its frequent extensions up to the level cap, then
        // its `NVSpawn` extensions (guaranteed zero support, case (a)).
        // `events` is the emission order: (parent, child, is NVSpawn).
        let mut events: Vec<(usize, usize, bool)> = Vec::new();
        let mut spawns: Vec<Spawn> = Vec::new();
        let mut own = Duration::ZERO;
        for pid in parents {
            let mut raw = exec.harvest(&self.tree, pid, &mut self.result.stats)?;
            let t0 = Instant::now();
            let proposals = proposals_from_harvest(&mut raw, cfg);
            let negs = if cfg.mine_negative {
                let q = &self.tree.node(pid).pattern;
                propose_negative_extensions(q, self.g, &self.triples, &proposals.seen, cfg)
            } else {
                Vec::new()
            };
            let merge = t0.elapsed();
            self.result.stats.spawning_merge_time += merge;
            self.result.stats.spawning_time += merge;
            for (ext, _count) in proposals.frequent {
                if cfg.max_patterns_per_level > 0 && spawns.len() >= cfg.max_patterns_per_level {
                    break;
                }
                if let Some(child) = self.insert(pid, ext) {
                    events.push((pid, child, false));
                    spawns.push(Spawn {
                        parent: pid,
                        child,
                        ext,
                    });
                }
            }
            for ext in negs {
                if let Some(child) = self.insert(pid, ext) {
                    self.tree.node_mut(child).state = NodeState::Empty;
                    self.result.stats.patterns_empty += 1;
                    events.push((pid, child, true));
                }
            }
            own += t0.elapsed();
        }

        let mut verdicts = Vec::with_capacity(spawns.len());
        exec.join(&self.tree, &spawns, &mut self.result.stats, &mut |j| {
            let state = verdict(cfg, j);
            verdicts.push((j, state));
            state == NodeState::Frequent
        })?;
        let t0 = Instant::now();
        let mut jobs = Vec::new();
        for (s, (j, state)) in spawns.iter().zip(verdicts) {
            let node = self.tree.node_mut(s.child);
            node.support = j.support;
            node.state = state;
            let stats = &mut self.result.stats;
            match state {
                NodeState::Empty => stats.patterns_empty += 1,
                NodeState::Infrequent => stats.patterns_infrequent += 1,
                _ => {
                    stats.patterns_verified += 1;
                    jobs.push(MineJob {
                        node: s.child,
                        rows: j.rows,
                        covered: self.tree.node(s.parent).covered.clone(),
                    });
                }
            }
        }
        own += t0.elapsed();

        let harvest_next = level < cfg.level_cap();
        let mut outcomes = exec
            .mine(&self.tree, jobs, harvest_next, &mut self.result.stats)?
            .into_iter();
        let t0 = Instant::now();
        for (pid, cid, nvspawn) in events {
            match self.tree.node(cid).state {
                NodeState::Frequent => {
                    if let Some(o) = outcomes.next() {
                        self.emit_mined(cid, o);
                    }
                }
                NodeState::Empty
                    if nvspawn
                        || (cfg.mine_negative && self.tree.node(pid).support >= cfg.sigma) =>
                {
                    self.emit_negative(cid, pid)
                }
                _ => {}
            }
        }
        exec.charge_master(own + t0.elapsed());
        exec.level_done(self, level)?;
        Ok(true)
    }

    /// Inserts `parent ⊕ ext`; returns the child's id when it opens a new
    /// isomorphism class.
    fn insert(&mut self, parent: usize, ext: Extension) -> Option<usize> {
        self.result.stats.patterns_spawned += 1;
        let child = self.tree.node(parent).pattern.extend(&ext);
        match self.tree.insert(child) {
            Inserted::Fresh(id) => Some(id),
            Inserted::Existing(_) => {
                self.result.stats.patterns_deduped += 1;
                None
            }
        }
    }

    /// Emits a verified pattern's dependencies and installs its covered
    /// set for its children.
    fn emit_mined(&mut self, id: usize, o: MineOutcome) {
        let pattern = &self.tree.node(id).pattern;
        let level = pattern.edge_count();
        for dep in o.deps {
            let confidence = dep.confidence();
            let gfd = Gfd::new(pattern.clone(), dep.lhs, dep.rhs);
            debug_assert!(!gfd.is_trivial());
            self.result.gfds.push(DiscoveredGfd {
                gfd,
                support: dep.support,
                level,
                confidence,
            });
        }
        self.result.stats.hspawn.merge(&o.hstats);
        self.tree.node_mut(id).covered = o.covered;
    }

    /// Emits `Q'(∅ → false)` for the empty pattern `child` unless a smaller
    /// emitted negative already embeds into it (minimal-trigger filter,
    /// §4.1). Its support is the parent's, the base of §4.2.
    fn emit_negative(&mut self, child: usize, parent: usize) {
        let pattern = &self.tree.node(child).pattern;
        if self
            .negative_patterns
            .iter()
            .any(|prev| is_embedded(prev, pattern))
        {
            return;
        }
        self.negative_patterns.push(pattern.clone());
        self.result.gfds.push(DiscoveredGfd {
            gfd: Gfd::new(pattern.clone(), vec![], Rhs::False),
            support: self.tree.node(parent).support,
            level: pattern.edge_count(),
            confidence: 1.0,
        });
    }
}

/// A spawned child's fate from its matches.
fn verdict(cfg: &DiscoveryConfig, j: Joined) -> NodeState {
    if j.rows == 0 {
        return NodeState::Empty;
    }
    // `max_matches_per_pattern` is a memory guard: a pattern with too
    // many matches to mine or expand is retired, counted as infrequent.
    let overflow = cfg.max_matches_per_pattern > 0 && j.rows > cfg.max_matches_per_pattern;
    if overflow || (j.support < cfg.sigma && cfg.enable_pruning) {
        NodeState::Infrequent
    } else {
        NodeState::Frequent
    }
}
