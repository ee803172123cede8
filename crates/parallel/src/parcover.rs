//! `ParCover` — parallel cover computation (§6.3).
//!
//! `Σ` is partitioned into **groups** of GFDs sharing one pattern
//! isomorphism class. By Lemma 6, whether `Σ \ {φ} ⊨ φ` depends only on
//! the GFDs embedded in `φ`'s pattern, so redundancy checks are pairwise
//! independent *across* groups and each group can be processed by a
//! different worker. Groups are keyed by the **unpivoted** canonical code:
//! implication ignores pivots, so mutually-implying rules (which must have
//! isomorphic patterns) always land in one group and cannot be removed
//! concurrently by two workers.
//!
//! Per group the worker receives the group's members plus its fixed
//! *context* — every rule of `Σ` embeddable into the group pattern — and
//! runs the sequential removal loop within the group. Work units are
//! assigned to workers by longest-processing-time (LPT) list scheduling,
//! the factor-2 makespan approximation the paper adopts from \[4\].
//!
//! The `ParCovern` ablation (§7) skips grouping: every candidate is tested
//! against the whole of `Σ`, and a master pass re-validates proposed
//! removals to keep the result a correct cover.

use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Steal};
use gfd_core::removal_order;
use gfd_graph::FxHashMap;
use gfd_logic::{implies_refs, Gfd};
use gfd_pattern::{canonical_code_unpivoted, is_embedded, CanonicalCode};

use crate::cluster::ExecMode;
use crate::fault::{self, FaultError};
use crate::pardis::Runtime;

/// Outcome of a parallel cover run.
#[derive(Debug)]
pub struct ParCoverReport {
    /// Indices into the input `Σ` that survive (sorted).
    pub cover: Vec<usize>,
    /// Real elapsed time.
    pub wall: Duration,
    /// Modelled `n`-machine time: `max_w(worker time) + master time`.
    pub simulated: Duration,
    /// Number of pattern groups.
    pub groups: usize,
    /// Deterministic work measure: total premises examined across all
    /// implication tests. Grouping shrinks each test's premise set from
    /// `|Σ|-1` to the group context, so this is what Lemma 6 saves.
    pub work: u64,
}

/// One work unit: a pattern group plus its implication context.
struct Group {
    /// Indices of Σ members in this group (pattern class).
    members: Vec<usize>,
    /// Indices of Σ members embeddable into the group pattern (context for
    /// the closure; includes the members themselves).
    context: Vec<usize>,
}

/// Builds pattern groups and contexts.
fn build_groups(sigma: &[Gfd]) -> Vec<Group> {
    let mut by_code: FxHashMap<CanonicalCode, Vec<usize>> = FxHashMap::default();
    for (i, g) in sigma.iter().enumerate() {
        by_code
            .entry(canonical_code_unpivoted(g.pattern()))
            .or_default()
            .push(i);
    }
    // Deterministic order.
    // gfd-lint: allow(nondeterminism) — drained into a Vec that is fully sorted by canonical code on the next line; hash order never escapes
    let mut classes: Vec<(CanonicalCode, Vec<usize>)> = by_code.into_iter().collect();
    classes.sort_by(|a, b| a.0.cmp(&b.0));

    classes
        .into_iter()
        .map(|(_, members)| {
            let host = sigma[members[0]].pattern();
            let context: Vec<usize> = sigma
                .iter()
                .enumerate()
                .filter(|(_, g)| {
                    g.pattern().node_count() <= host.node_count()
                        && g.pattern().edge_count() <= host.edge_count()
                        && is_embedded(g.pattern(), host)
                })
                .map(|(i, _)| i)
                .collect();
            Group { members, context }
        })
        .collect()
}

/// LPT assignment of groups to `n` workers; returns per-worker group lists.
fn lpt_assign(groups: &[Group], n: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    // Cost model: members × context (implication tests × closure size).
    let cost = |g: &Group| (g.members.len() * g.context.len().max(1)) as u64;
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&groups[i])));
    let mut loads = vec![0u64; n];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in order {
        let w = (0..n).min_by_key(|&w| loads[w]).unwrap();
        loads[w] += cost(&groups[i]);
        assignment[w].push(i);
    }
    assignment
}

/// Sequential within-group removal: returns members found redundant plus
/// the premises-examined work count.
fn process_group(sigma: &[Gfd], group: &Group) -> (Vec<usize>, u64) {
    let mut removed: Vec<usize> = Vec::new();
    let mut work = 0u64;
    // SeqCover's removal order, so both keep the same survivors.
    let mut order = group.members.clone();
    removal_order(sigma, &mut order);
    loop {
        let mut changed = false;
        for &i in &order {
            if removed.contains(&i) {
                continue;
            }
            let rest: Vec<&Gfd> = group
                .context
                .iter()
                .copied()
                .filter(|&j| j != i && !removed.contains(&j))
                .map(|j| &sigma[j])
                .collect();
            work += rest.len() as u64;
            if implies_refs(rest, &sigma[i]) {
                removed.push(i);
                changed = true;
            }
        }
        if !changed {
            return (removed, work);
        }
    }
}

/// Computes a cover of `sigma` in parallel with `n` workers.
///
/// `grouping = false` reproduces the `ParCovern` ablation.
pub fn par_cover(
    sigma: &[Gfd],
    n: usize,
    mode: ExecMode,
    grouping: bool,
) -> Result<ParCoverReport, FaultError> {
    par_cover_with_runtime(sigma, n, mode, grouping, Runtime::Barrier)
}

/// [`par_cover`] on the chosen runtime. [`Runtime::Steal`] replaces the
/// static LPT pre-assignment with dynamic stealing of whole groups from a
/// shared injector deque: workers pull the next-heaviest unprocessed group
/// the moment they go idle, so a mispredicted group cost never strands a
/// worker the way a bad LPT split does. In [`ExecMode::Simulated`] the
/// greedy min-load assignment over the cost-sorted order *is* the steal
/// schedule, so the simulated path is shared with LPT; the ungrouped
/// `ParCovern` ablation is runtime-independent.
pub fn par_cover_with_runtime(
    sigma: &[Gfd],
    n: usize,
    mode: ExecMode,
    grouping: bool,
    runtime: Runtime,
) -> Result<ParCoverReport, FaultError> {
    assert!(n > 0);
    let wall0 = Instant::now();
    if !grouping {
        return par_cover_ungrouped(sigma, n, mode, wall0);
    }
    match (runtime, mode) {
        (Runtime::Steal, ExecMode::Threads) => par_cover_steal_threads(sigma, n, wall0),
        _ => par_cover_grouped(sigma, n, mode, wall0),
    }
}

/// Steals one group id, retrying on [`Steal::Retry`] (the real
/// `crossbeam` injector loses races under contention).
fn steal_group(q: &Injector<usize>) -> Option<usize> {
    loop {
        match q.steal() {
            Steal::Success(gi) => return Some(gi),
            Steal::Empty => return None,
            Steal::Retry => continue,
        }
    }
}

/// Runs `n` threaded workers, worker `w` draining `queues[w]` of group
/// ids; LPT passes one private queue per worker, stealing passes the same
/// shared queue `n` times. Returns per-worker (removed, work, time).
fn drain_group_queues(
    sigma: &[Gfd],
    groups: &[Group],
    queues: &[&Injector<usize>],
) -> Result<Vec<(Vec<usize>, u64, Duration)>, FaultError> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .iter()
            .map(|queue| {
                let queue = *queue;
                scope.spawn(move || {
                    // fault-boundary: a panic inside group processing
                    // becomes an Err result instead of tearing down the
                    // scope; the worker stops pulling further groups.
                    fault::run_guarded(|| {
                        let t0 = Instant::now();
                        let mut removed = Vec::new();
                        let mut work = 0u64;
                        while let Some(gi) = steal_group(queue) {
                            let (r, w) = process_group(sigma, &groups[gi]);
                            removed.extend(r);
                            work += w;
                        }
                        // Wall time in its own binding: the modelled
                        // `work` channel never touches the clock.
                        let wall = t0.elapsed();
                        (removed, work, wall)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| match h.join() {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(_)) | Err(_) => Err(FaultError::WorkerLost { worker: w }),
            })
            .collect()
    })
}

/// Assembles the grouped report from per-worker results.
fn grouped_report(
    sigma: &[Gfd],
    group_count: usize,
    worker_results: Vec<(Vec<usize>, u64, Duration)>,
    master_prep: Duration,
    wall0: Instant,
) -> ParCoverReport {
    let mut removed_all: Vec<usize> = Vec::new();
    let mut work = 0u64;
    let mut makespan = Duration::ZERO;
    for (removed, wk, d) in worker_results {
        removed_all.extend(removed);
        work += wk;
        makespan = makespan.max(d);
    }
    let cover: Vec<usize> = (0..sigma.len())
        .filter(|i| !removed_all.contains(i))
        .collect();
    let wall = wall0.elapsed();
    ParCoverReport {
        cover,
        wall,
        simulated: makespan + master_prep,
        groups: group_count,
        work,
    }
}

/// Dynamic group stealing: one shared injector of group ids in
/// descending-cost order, `n` workers draining it.
fn par_cover_steal_threads(
    sigma: &[Gfd],
    n: usize,
    wall0: Instant,
) -> Result<ParCoverReport, FaultError> {
    let m0 = Instant::now();
    let groups = build_groups(sigma);
    let mut order: Vec<usize> = (0..groups.len()).collect();
    let cost = |g: &Group| (g.members.len() * g.context.len().max(1)) as u64;
    order.sort_by_key(|&i| std::cmp::Reverse(cost(&groups[i])));
    let queue: Injector<usize> = Injector::new();
    for gi in order {
        queue.push(gi);
    }
    let master_prep = m0.elapsed();

    let shared: Vec<&Injector<usize>> = vec![&queue; n];
    let per_worker = drain_group_queues(sigma, &groups, &shared)?;
    Ok(grouped_report(
        sigma,
        groups.len(),
        per_worker,
        master_prep,
        wall0,
    ))
}

fn par_cover_grouped(
    sigma: &[Gfd],
    n: usize,
    mode: ExecMode,
    wall0: Instant,
) -> Result<ParCoverReport, FaultError> {
    let m0 = Instant::now();
    let groups = build_groups(sigma);
    let assignment = lpt_assign(&groups, n);
    let master_prep = m0.elapsed();

    let per_worker: Vec<(Vec<usize>, u64, Duration)> = match mode {
        ExecMode::Simulated => assignment
            .iter()
            .map(|gids| {
                let t0 = Instant::now();
                let mut removed = Vec::new();
                let mut work = 0u64;
                for &gi in gids {
                    let (r, w) = process_group(sigma, &groups[gi]);
                    removed.extend(r);
                    work += w;
                }
                // Wall time in its own binding, away from modelled work.
                let wall = t0.elapsed();
                (removed, work, wall)
            })
            .collect(),
        ExecMode::Threads => {
            // Private per-worker queues preserve the static LPT schedule.
            let queues: Vec<Injector<usize>> = assignment
                .iter()
                .map(|gids| {
                    let q = Injector::new();
                    for &gi in gids {
                        q.push(gi);
                    }
                    q
                })
                .collect();
            let views: Vec<&Injector<usize>> = queues.iter().collect();
            drain_group_queues(sigma, &groups, &views)?
        }
    };
    Ok(grouped_report(
        sigma,
        groups.len(),
        per_worker,
        master_prep,
        wall0,
    ))
}

fn par_cover_ungrouped(
    sigma: &[Gfd],
    n: usize,
    mode: ExecMode,
    wall0: Instant,
) -> Result<ParCoverReport, FaultError> {
    // Each candidate tested against the *whole* Σ — no context reduction.
    let chunks: Vec<Vec<usize>> = (0..n)
        .map(|w| (0..sigma.len()).filter(|i| i % n == w).collect())
        .collect();
    let test = |i: usize| -> bool {
        implies_refs(
            sigma
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, g)| g),
            &sigma[i],
        )
    };

    let mut wall_times = vec![Duration::ZERO; n];
    let mut proposed: Vec<usize> = Vec::new();
    let mut work = 0u64;
    let per_test = sigma.len().saturating_sub(1) as u64;
    match mode {
        ExecMode::Simulated => {
            for (w, chunk) in chunks.iter().enumerate() {
                let t0 = Instant::now();
                for &i in chunk {
                    work += per_test;
                    if test(i) {
                        proposed.push(i);
                    }
                }
                wall_times[w] = t0.elapsed();
            }
        }
        ExecMode::Threads => {
            let results: Result<Vec<(Vec<usize>, Duration)>, FaultError> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = chunks
                        .iter()
                        .map(|chunk| {
                            scope.spawn(move || {
                                // fault-boundary: a panic inside a
                                // candidate test becomes an Err result
                                // instead of tearing down the scope.
                                fault::run_guarded(|| {
                                    let t0 = Instant::now();
                                    let removed: Vec<usize> =
                                        chunk.iter().copied().filter(|&i| test(i)).collect();
                                    (removed, t0.elapsed())
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .enumerate()
                        .map(|(w, h)| match h.join() {
                            Ok(Ok(r)) => Ok(r),
                            Ok(Err(_)) | Err(_) => Err(FaultError::WorkerLost { worker: w }),
                        })
                        .collect()
                });
            for (w, (removed, d)) in results?.into_iter().enumerate() {
                work += chunks[w].len() as u64 * per_test;
                proposed.extend(removed);
                wall_times[w] = d;
            }
        }
    }

    // Master pass: apply proposals sequentially against the survivors, so
    // mutually-implied pairs are not both dropped.
    let m0 = Instant::now();
    proposed.sort_unstable();
    let mut removed: Vec<bool> = vec![false; sigma.len()];
    for &i in &proposed {
        let rest: Vec<&Gfd> = sigma
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i && !removed[*j])
            .map(|(_, g)| g)
            .collect();
        work += rest.len() as u64;
        if implies_refs(rest, &sigma[i]) {
            removed[i] = true;
        }
    }
    let master = m0.elapsed();

    let makespan = wall_times.iter().max().copied().unwrap_or_default();
    let cover: Vec<usize> = (0..sigma.len()).filter(|&i| !removed[i]).collect();
    let wall = wall0.elapsed();
    Ok(ParCoverReport {
        cover,
        wall,
        simulated: makespan + master,
        groups: 0,
        work,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::{AttrId, LabelId, Value};
    use gfd_logic::{implies, Literal, Rhs};
    use gfd_pattern::{End, Extension, PLabel, Pattern};

    fn l(i: u32) -> PLabel {
        PLabel::Is(LabelId(i))
    }

    fn mixed_sigma() -> Vec<Gfd> {
        let q = Pattern::edge(l(0), l(1), l(2));
        let q2 = q.extend(&Extension {
            src: End::Var(1),
            dst: End::New(l(3)),
            label: l(4),
        });
        let rhs = Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(1)));
        vec![
            // general rule
            Gfd::new(q.clone(), vec![], rhs),
            // implied: bigger pattern
            Gfd::new(q2.clone(), vec![], rhs),
            // implied: extra premise
            Gfd::new(
                q.clone(),
                vec![Literal::constant(1, AttrId(1), Value::Int(2))],
                rhs,
            ),
            // independent rule on another pattern
            Gfd::new(
                Pattern::edge(l(5), l(6), l(7)),
                vec![],
                Rhs::Lit(Literal::constant(1, AttrId(0), Value::Int(3))),
            ),
            // negative rule
            Gfd::new(
                Pattern::edge(l(0), l(1), l(0)),
                vec![Literal::constant(0, AttrId(0), Value::Int(9))],
                Rhs::False,
            ),
        ]
    }

    fn check_is_cover(sigma: &[Gfd], cover_idx: &[usize]) {
        let cover: Vec<Gfd> = cover_idx.iter().map(|&i| sigma[i].clone()).collect();
        for phi in sigma {
            assert!(implies(&cover, phi), "cover must imply all of Σ");
        }
        for (i, phi) in cover.iter().enumerate() {
            let rest: Vec<Gfd> = cover
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, g)| g.clone())
                .collect();
            assert!(!implies(&rest, phi), "cover must be minimal: {i}");
        }
    }

    #[test]
    fn grouped_cover_is_valid_and_matches_sequential_size() {
        let sigma = mixed_sigma();
        let seq = gfd_core::cover_indices(&sigma);
        for n in [1, 2, 4] {
            let rep = par_cover(&sigma, n, ExecMode::Simulated, true).expect("fault-free");
            check_is_cover(&sigma, &rep.cover);
            assert_eq!(rep.cover.len(), seq.len(), "n={n}");
            assert!(rep.groups >= 3);
        }
    }

    #[test]
    fn grouped_cover_threads_mode() {
        let sigma = mixed_sigma();
        let rep = par_cover(&sigma, 2, ExecMode::Threads, true).expect("fault-free");
        check_is_cover(&sigma, &rep.cover);
    }

    #[test]
    fn steal_runtime_cover_matches_lpt_cover() {
        let sigma = mixed_sigma();
        let seq = gfd_core::cover_indices(&sigma);
        for n in [1, 2, 4] {
            let rep = par_cover_with_runtime(&sigma, n, ExecMode::Threads, true, Runtime::Steal)
                .expect("fault-free");
            check_is_cover(&sigma, &rep.cover);
            assert_eq!(rep.cover.len(), seq.len(), "n={n}");
            assert!(rep.groups >= 3);
            assert!(rep.work > 0);
        }
    }

    #[test]
    fn ungrouped_cover_is_valid() {
        let sigma = mixed_sigma();
        let rep = par_cover(&sigma, 3, ExecMode::Simulated, false).expect("fault-free");
        check_is_cover(&sigma, &rep.cover);
        assert_eq!(rep.groups, 0);
    }

    #[test]
    fn mutually_implying_pair_not_both_removed() {
        // Two identical rules (same group): exactly one must survive.
        let q = Pattern::edge(l(0), l(1), l(2));
        let rhs = Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(1)));
        let sigma = vec![Gfd::new(q.clone(), vec![], rhs), Gfd::new(q, vec![], rhs)];
        for grouping in [true, false] {
            let rep = par_cover(&sigma, 2, ExecMode::Simulated, grouping).expect("fault-free");
            assert_eq!(rep.cover.len(), 1, "grouping={grouping}");
        }
    }

    #[test]
    fn pivot_variants_share_a_group() {
        // Same pattern, different pivots: mutually implying, one survives.
        let q = Pattern::edge(l(0), l(1), l(2));
        let rhs = Rhs::Lit(Literal::constant(0, AttrId(0), Value::Int(1)));
        let sigma = vec![
            Gfd::new(q.clone(), vec![], rhs),
            Gfd::new(q.with_pivot(1), vec![], rhs),
        ];
        let rep = par_cover(&sigma, 2, ExecMode::Simulated, true).expect("fault-free");
        assert_eq!(rep.cover.len(), 1);
        check_is_cover(&sigma, &rep.cover);
    }

    #[test]
    fn lpt_balances_group_costs() {
        let groups: Vec<Group> = (0..7)
            .map(|i| Group {
                members: (0..(i + 1)).collect(),
                context: (0..(i + 1)).collect(),
            })
            .collect();
        let assignment = lpt_assign(&groups, 3);
        let loads: Vec<u64> = assignment
            .iter()
            .map(|gids| {
                gids.iter()
                    .map(|&g| (groups[g].members.len() * groups[g].context.len()) as u64)
                    .sum()
            })
            .collect();
        let max = *loads.iter().max().unwrap();
        let sum: u64 = loads.iter().sum();
        // Factor-2 guarantee: makespan ≤ 2 × optimal ≤ 2 × (sum/n + max_job).
        assert!(max as f64 <= 2.0 * (sum as f64 / 3.0) + 49.0);
        let assigned: usize = assignment.iter().map(Vec::len).sum();
        assert_eq!(assigned, 7);
    }

    #[test]
    fn empty_sigma() {
        let rep = par_cover(&[], 4, ExecMode::Simulated, true).expect("fault-free");
        assert!(rep.cover.is_empty());
        let rep = par_cover(&[], 4, ExecMode::Simulated, false).expect("fault-free");
        assert!(rep.cover.is_empty());
    }
}
