//! Exp-4: cover computation (Fig. 5(i–l) and Fig. 6's SeqCover column).

use std::time::Instant;

use gfd_core::{seq_cover, seq_dis};
use gfd_datagen::{generate_gfds, GfdGenConfig, KbProfile};
use gfd_logic::Gfd;
use gfd_parallel::{par_cover, ExecMode};

use crate::report::{f, Table};
use crate::{bench_cfg, bench_kb, secs, Scale, WORKER_SWEEP};

/// Mines a rule set to feed the cover experiments. The miner's raw output
/// includes thousands of NHSpawn negatives at bench σ; the paper's real-life
/// Σ sits in the hundreds (Fig. 6: 321/145), so the top rules by support are
/// kept — the `ParCovern` ablation is quadratic in |Σ| and would otherwise
/// dwarf every other series.
fn mined_sigma(profile: KbProfile, scale: Scale) -> Vec<Gfd> {
    let g = bench_kb(profile, scale);
    let cfg = bench_cfg(&g, 4);
    let mut mined = seq_dis(&g, &cfg).gfds;
    mined.sort_by_key(|d| std::cmp::Reverse(d.support));
    mined.truncate(600);
    mined.into_iter().map(|d| d.gfd).collect()
}

/// Fig. 5(i)/(j)/(k): `ParCover` vs `ParCovern` (no grouping), varying n.
pub fn fig5_cover_workers(profile: KbProfile, scale: Scale) -> Table {
    let sigma = mined_sigma(profile, scale);
    let mut t = Table::new(
        &format!(
            "Fig 5({}) ParCover varying n ({}, |Σ|={})",
            match profile {
                KbProfile::Dbpedia => 'i',
                KbProfile::Yago2 => 'j',
                KbProfile::Imdb => 'k',
            },
            profile.name(),
            sigma.len()
        ),
        &["n", "ParCover(s)", "ParCovern(s)", "cover", "groups"],
    );
    for n in WORKER_SWEEP {
        let grouped = par_cover(&sigma, n, ExecMode::Simulated, true).expect("fault-free");
        let ungrouped = par_cover(&sigma, n, ExecMode::Simulated, false).expect("fault-free");
        t.row(vec![
            n.to_string(),
            f(secs(grouped.simulated)),
            f(secs(ungrouped.simulated)),
            grouped.cover.len().to_string(),
            grouped.groups.to_string(),
        ]);
    }
    t
}

/// Fig. 5(l): varying `|Σ|` with generated rule sets, n = 4 (paper sweeps
/// 2000..10000; the default scale sweeps a proportional range).
pub fn fig5l(scale: Scale) -> Table {
    let g = bench_kb(KbProfile::Yago2, Scale(0.3 * scale.0));
    let mut t = Table::new(
        "Fig 5(l) varying |Σ| (generated, n=4, k≤4)",
        &["|Σ|", "ParCover(s)", "ParCovern(s)", "cover"],
    );
    for step in 1..=5usize {
        let count = scale.apply(400 * step);
        let sigma = generate_gfds(
            &g,
            &GfdGenConfig {
                count,
                k: 4,
                specialization_rate: 0.35,
                ..Default::default()
            },
        );
        let grouped = par_cover(&sigma, 4, ExecMode::Simulated, true).expect("fault-free");
        let ungrouped = par_cover(&sigma, 4, ExecMode::Simulated, false).expect("fault-free");
        t.row(vec![
            count.to_string(),
            f(secs(grouped.simulated)),
            f(secs(ungrouped.simulated)),
            grouped.cover.len().to_string(),
        ]);
    }
    t
}

/// Fig. 6's SeqCover column: sequential cover cost per dataset.
///
/// `SeqCover` runs the cover engine inline, so each rule is tested against
/// its Lemma 6 context only, once. The column is therefore not the paper's
/// unoptimised baseline; the ungrouped `ParCovern` series of Fig. 5 still
/// shows what testing every rule against all of `Σ` costs.
pub fn sequential_cover(scale: Scale) -> Table {
    let mut t = Table::new(
        "Fig 6 (right): sequential SeqCover cost",
        &["dataset", "|Σ|", "SeqCover(s)", "|Σc|"],
    );
    for profile in [KbProfile::Dbpedia, KbProfile::Yago2] {
        let sigma = mined_sigma(profile, scale);
        let t0 = Instant::now();
        let cover = seq_cover(&sigma);
        let elapsed = t0.elapsed();
        t.row(vec![
            profile.name().to_string(),
            sigma.len().to_string(),
            f(secs(elapsed)),
            cover.len().to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grouping ablation's headline: ParCover does far less implication
    /// work than ParCovern (paper: ~10×). Checked via the deterministic
    /// premises-examined counter, not wall time, so it cannot flake under
    /// CI contention.
    #[test]
    fn grouping_beats_no_grouping() {
        let g = bench_kb(KbProfile::Yago2, Scale(0.04));
        let sigma = generate_gfds(
            &g,
            &GfdGenConfig {
                count: 150,
                specialization_rate: 0.4,
                ..Default::default()
            },
        );
        let grouped = par_cover(&sigma, 4, ExecMode::Simulated, true).expect("fault-free");
        let ungrouped = par_cover(&sigma, 4, ExecMode::Simulated, false).expect("fault-free");
        // Both compute valid covers of the same input.
        assert!(!grouped.cover.is_empty());
        assert!(!ungrouped.cover.is_empty());
        assert!(
            grouped.work * 2 < ungrouped.work,
            "grouping should cut implication work at least 2x: grouped {} vs ungrouped {}",
            grouped.work,
            ungrouped.work
        );
    }

    #[test]
    fn cover_tables_render() {
        let t = fig5l(Scale(if cfg!(debug_assertions) { 0.02 } else { 0.03 }));
        assert!(t.render().contains("Fig 5(l)"));
    }
}
