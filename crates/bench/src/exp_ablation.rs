//! Ablations behind §7's "Infeasibility of ParGFDn and ParArab" findings,
//! plus the cost breakdown the paper mentions ("parallel pattern
//! verification and GFD validation dominate").

use std::time::Instant;

use gfd_baselines::split_pipeline;
use gfd_core::seq_dis;
use gfd_datagen::KbProfile;

use crate::report::{f, Table};
use crate::{bench_cfg, bench_kb, secs, Scale};

/// `ParGFDn` (no Lemma 4 pruning): candidate counts and time explode
/// relative to `DisGFD`'s pruned search. At paper scale the unpruned run
/// exhausts memory; here the blow-up is made visible at a scale where the
/// run still terminates.
pub fn ablation_pruning(scale: Scale) -> Table {
    let g = bench_kb(KbProfile::Yago2, Scale(0.35 * scale.0));
    let pruned_cfg = bench_cfg(&g, 3);
    let mut unpruned_cfg = pruned_cfg.clone();
    unpruned_cfg.enable_pruning = false;

    let mut t = Table::new(
        &format!(
            "Ablation: Lemma 4 pruning (YAGO2, |V|={}, |E|={}, k=3)",
            g.node_count(),
            g.edge_count()
        ),
        &["variant", "time(s)", "candidates", "patterns", "rules"],
    );
    for (name, cfg) in [
        ("DisGFD (pruned)", &pruned_cfg),
        ("ParGFDn (no pruning)", &unpruned_cfg),
    ] {
        let t0 = Instant::now();
        let r = seq_dis(&g, cfg);
        t.row(vec![
            name.into(),
            f(secs(t0.elapsed())),
            r.stats.hspawn.candidates.to_string(),
            r.stats.patterns_spawned.to_string(),
            r.gfds.len().to_string(),
        ]);
    }
    t
}

/// `ParArab` (split pipeline): full pattern materialisation between phases
/// vs the integrated miner's two-level footprint.
pub fn ablation_split(scale: Scale) -> Table {
    let g = bench_kb(KbProfile::Yago2, Scale(0.35 * scale.0));
    let cfg = bench_cfg(&g, 3);

    let mut t = Table::new(
        "Ablation: integrated vs split pipeline (ParArab)",
        &["variant", "time(s)", "peak rows", "rules"],
    );
    let t0 = Instant::now();
    let seq = seq_dis(&g, &cfg);
    let seq_time = t0.elapsed();
    t.row(vec![
        "SeqDis (integrated)".into(),
        f(secs(seq_time)),
        "two levels".into(),
        seq.gfds.len().to_string(),
    ]);
    let split = split_pipeline(&g, &cfg);
    t.row(vec![
        "ParArab (split)".into(),
        f(secs(split.pattern_time + split.fd_time)),
        split.peak_rows.to_string(),
        split.rules.len().to_string(),
    ]);
    t
}

/// Cost breakdown of a sequential run: matching vs validation shares.
pub fn cost_breakdown(scale: Scale) -> Table {
    let mut t = Table::new(
        "Cost breakdown (SeqDis): matching vs validation",
        &[
            "dataset",
            "total(s)",
            "match(s)",
            "validate(s)",
            "match%",
            "validate%",
        ],
    );
    for profile in [KbProfile::Dbpedia, KbProfile::Yago2, KbProfile::Imdb] {
        let g = bench_kb(profile, Scale(0.5 * scale.0));
        let cfg = bench_cfg(&g, 4);
        let r = seq_dis(&g, &cfg);
        let total = r.stats.total_time.as_secs_f64().max(1e-9);
        t.row(vec![
            profile.name().to_string(),
            f(secs(r.stats.total_time)),
            f(secs(r.stats.matching_time)),
            f(secs(r.stats.validation_time())),
            format!(
                "{:.0}%",
                100.0 * r.stats.matching_time.as_secs_f64() / total
            ),
            format!(
                "{:.0}%",
                100.0 * r.stats.validation_time().as_secs_f64() / total
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_reduces_candidates() {
        let g = bench_kb(
            KbProfile::Yago2,
            Scale(if cfg!(debug_assertions) { 0.04 } else { 0.08 }),
        );
        let pruned = bench_cfg(&g, 3);
        let mut unpruned = pruned.clone();
        unpruned.enable_pruning = false;
        let a = seq_dis(&g, &pruned);
        let b = seq_dis(&g, &unpruned);
        assert!(b.stats.hspawn.candidates > a.stats.hspawn.candidates);
    }

    #[test]
    fn breakdown_sums_to_less_than_total() {
        let g = bench_kb(
            KbProfile::Imdb,
            Scale(if cfg!(debug_assertions) { 0.04 } else { 0.08 }),
        );
        let r = seq_dis(&g, &bench_cfg(&g, 3));
        assert!(r.stats.matching_time + r.stats.validation_time() <= r.stats.total_time * 2);
        assert!(r.stats.total_time.as_nanos() > 0);
    }
}
