//! `ParCover` — parallel cover computation (§6.3).
//!
//! `gfd-logic`'s cover engine ([`gfd_logic::cover`]) splits `Σ` into
//! **groups**, one per unpivoted pattern class, each with a fixed
//! *context*: every rule of `Σ` embedded in the group pattern. By Lemma 6,
//! whether `Σ \ {φ} ⊨ φ` depends only on those rules, so groups are
//! independent and each can go to a different worker. Implication ignores
//! pivots, so mutually implying rules (which must have isomorphic
//! patterns) always land in one group and are never removed concurrently.
//!
//! `ParCover` assigns groups to workers by longest-processing-time (LPT)
//! list scheduling, the factor-2 makespan approximation the paper adopts
//! from \[4\]; each worker runs the engine's one-pass removal over its
//! groups. The survivors are `SeqCover`'s, whatever the worker count or
//! [`ExecMode`].
//!
//! The `ParCovern` ablation (§7) skips grouping: every candidate is tested
//! against the whole of `Σ`, and a master pass re-validates proposed
//! removals to keep the result a correct cover.

use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use gfd_logic::{cover_groups, implies_refs, CoverGroup, Gfd};

use crate::cluster::ExecMode;
use crate::fault::{self, FaultError};

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

/// LPT assignment of groups to `n` workers; returns per-worker group lists.
fn lpt_assign(groups: &[CoverGroup], n: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..groups.len()).collect();
    // Cost model: members × context (implication tests × closure size).
    let cost = |g: &CoverGroup| (g.members.len() * g.context.len().max(1)) as u64;
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

/// One worker's share: runs the engine's removal pass over the groups
/// `gids`; returns the removed rules, the premises examined, and the
/// worker's wall time.
fn run_groups(sigma: &[Gfd], groups: &[CoverGroup], gids: &[usize]) -> (Vec<usize>, u64, Duration) {
    let t0 = Instant::now();
    let mut removed = Vec::new();
    let mut work = 0u64;
    for &gi in gids {
        let (r, w) = groups[gi].redundant(sigma);
        removed.extend(r);
        work += w;
    }
    // Wall time in its own binding: the modelled `work` channel never
    // touches the clock.
    let wall = t0.elapsed();
    (removed, work, wall)
}

/// Joins guarded worker threads in worker order; a panicked or lost
/// worker becomes [`FaultError::WorkerLost`].
fn join_workers<T>(
    handles: Vec<ScopedJoinHandle<'_, Result<T, String>>>,
) -> Result<Vec<T>, FaultError> {
    handles
        .into_iter()
        .enumerate()
        .map(|(w, h)| match h.join() {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(_)) | Err(_) => Err(FaultError::WorkerLost { worker: w }),
        })
        .collect()
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
    assert!(n > 0);
    let wall0 = Instant::now();
    if !grouping {
        return par_cover_ungrouped(sigma, n, mode, wall0);
    }
    let m0 = Instant::now();
    let groups = cover_groups(sigma);
    let assignment = lpt_assign(&groups, n);
    let master_prep = m0.elapsed();

    let per_worker: Vec<(Vec<usize>, u64, Duration)> = match mode {
        ExecMode::Simulated => assignment
            .iter()
            .map(|gids| run_groups(sigma, &groups, gids))
            .collect(),
        // Each worker gets its LPT group list directly.
        ExecMode::Threads => std::thread::scope(|scope| {
            let groups = &groups;
            let handles = assignment
                .iter()
                .map(|gids| {
                    scope.spawn(move || {
                        // fault-boundary: a panic inside group processing
                        // becomes an Err result instead of tearing down the
                        // scope; the worker's other groups are abandoned
                        // and the run reports the worker lost.
                        fault::run_guarded(|| run_groups(sigma, groups, gids))
                    })
                })
                .collect();
            join_workers(handles)
        })?,
    };

    let mut alive = vec![true; sigma.len()];
    let mut work = 0u64;
    let mut makespan = Duration::ZERO;
    for (removed, wk, d) in per_worker {
        for i in removed {
            alive[i] = false;
        }
        work += wk;
        makespan = makespan.max(d);
    }
    let wall = wall0.elapsed();
    Ok(ParCoverReport {
        cover: (0..sigma.len()).filter(|&i| alive[i]).collect(),
        wall,
        simulated: makespan + master_prep,
        groups: groups.len(),
        work,
    })
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
                    let handles = chunks
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
                    join_workers(handles)
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
        let groups: Vec<CoverGroup> = (0..7)
            .map(|i| CoverGroup {
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
