//! Cross-crate integration: full discovery pipelines over generated
//! knowledge bases, sequential/parallel equivalence, cover semantics, and
//! baseline comparisons.

use std::sync::Arc;

use gfd::prelude::*;

fn small_cfg() -> DiscoveryConfig {
    let mut cfg = DiscoveryConfig::new(3, 20);
    cfg.max_edges = 4;
    cfg.max_lhs_size = 1;
    cfg.values_per_attr = 4;
    cfg
}

#[test]
fn discovery_finds_planted_rules_on_yago() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(260));
    let result = seq_dis(&g, &small_cfg());
    assert!(!result.gfds.is_empty());

    // Planted φ3-style rule: mutual parent prohibited.
    let parent = g.interner().lookup_label("parent").unwrap();
    let mutual = result.gfds.iter().any(|d| {
        let q = d.gfd.pattern();
        d.gfd.is_negative()
            && d.gfd.lhs().is_empty()
            && q.edge_count() == 2
            && q.edges().iter().all(|e| e.label == PLabel::Is(parent))
            && q.edges_between(0, 1).len() == 1
            && q.edges_between(1, 0).len() == 1
    });
    assert!(mutual, "mutual-parent negative not found");

    // Every rule holds on the graph with at least σ support.
    for d in &result.gfds {
        assert!(satisfies(&g, &d.gfd));
        assert!(d.support >= 20);
        assert!(d.gfd.k() <= 3);
        assert!(!d.gfd.is_trivial());
    }
}

#[test]
fn full_pipeline_cover_is_equivalent_and_minimal() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Imdb).with_scale(200));
    let result = seq_dis(&g, &small_cfg());
    let rules = result.rules();
    let cover = seq_cover(&rules);
    assert!(cover.len() <= rules.len());
    // Σ_c ⊨ Σ.
    for phi in &rules {
        assert!(implies(&cover, phi), "{}", phi.display(g.interner()));
    }
    // Minimality.
    for i in 0..cover.len() {
        let rest: Vec<Gfd> = cover
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, r)| r.clone())
            .collect();
        assert!(!implies(&rest, &cover[i]));
    }
}

#[test]
fn parallel_pipeline_equals_sequential_on_kb() {
    let g = Arc::new(knowledge_base(
        &KbConfig::new(KbProfile::Yago2).with_scale(200),
    ));
    let cfg = small_cfg();
    let seq = seq_dis(&g, &cfg);
    let key = |r: &DiscoveryResult| {
        let mut v: Vec<String> = r
            .gfds
            .iter()
            .map(|d| format!("{} {}", d.gfd.display(g.interner()), d.support))
            .collect();
        v.sort();
        v
    };
    let seq_key = key(&seq);
    for n in [2, 5] {
        let report =
            par_dis(&g, &cfg, &ClusterConfig::new(n, ExecMode::Simulated)).expect("fault-free");
        assert_eq!(key(&report.result), seq_key, "n={n}");
    }
}

#[test]
fn parallel_cover_agrees_with_sequential_cover_semantics() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(200));
    let sigma = generate_gfds(
        &g,
        &GfdGenConfig {
            count: 120,
            specialization_rate: 0.5,
            ..Default::default()
        },
    );
    let seq = seq_cover(&sigma);
    // Both covers test rules in one total removal order, so grouped
    // ParCover keeps exactly SeqCover's survivors at any worker count.
    let seq_kept = gfd::core::cover_indices(&sigma);
    for n in [1, 2, 4] {
        let par = par_cover(&sigma, n, ExecMode::Simulated, true).expect("fault-free");
        assert_eq!(par.cover, seq_kept, "survivors differ at {n} workers");
    }
    for grouping in [true, false] {
        let par = par_cover(&sigma, 4, ExecMode::Simulated, grouping).expect("fault-free");
        let par_rules: Vec<Gfd> = par.cover.iter().map(|&i| sigma[i].clone()).collect();
        // Both covers imply the full set (equivalence) …
        for phi in &sigma {
            assert!(implies(&par_rules, phi));
            assert!(implies(&seq, phi));
        }
        // … and are minimal.
        for i in 0..par_rules.len() {
            let rest: Vec<Gfd> = par_rules
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, r)| r.clone())
                .collect();
            assert!(!implies(&rest, &par_rules[i]));
        }
    }
}

#[test]
fn discover_parallel_matches_sequential_cover() {
    let g = Arc::new(knowledge_base(
        &KbConfig::new(KbProfile::Yago2).with_scale(200),
    ));
    let cfg = small_cfg();

    // Every (rule, support) pair the sequential miner produces; parallel
    // discovery is equivalent (see parallel_pipeline_equals_sequential_on_kb),
    // so any pair outside this set means the facade's cover indices were
    // applied against the wrong ordering of `report.result.gfds`.
    let seq = seq_dis(&g, &cfg);
    let seq_pairs: std::collections::BTreeSet<String> = seq
        .gfds
        .iter()
        .map(|d| format!("{} @{}", d.gfd.display(g.interner()), d.support))
        .collect();
    let seq_cover: Vec<Gfd> = gfd::discover_with(&g, &cfg)
        .iter()
        .map(|d| d.gfd.clone())
        .collect();

    for workers in [2, 4] {
        let par = gfd::discover_parallel(&g, &cfg, workers);
        assert!(!par.is_empty(), "workers={workers}");

        // A misaligned cover index would pair a rule with another rule's
        // support (or duplicate a rule); both are detectable here.
        let mut seen = std::collections::BTreeSet::new();
        for d in &par {
            let pair = format!("{} @{}", d.gfd.display(g.interner()), d.support);
            assert!(
                seq_pairs.contains(&pair),
                "workers={workers}: (rule, support) pair not produced by discovery: {pair}"
            );
            assert!(
                seen.insert(d.gfd.display(g.interner())),
                "workers={workers}: duplicate rule in cover"
            );
        }

        // The parallel cover is equivalent to the sequential cover.
        let par_rules: Vec<Gfd> = par.iter().map(|d| d.gfd.clone()).collect();
        for phi in &seq_cover {
            assert!(implies(&par_rules, phi), "workers={workers}: par ⊭ seq");
        }
        for phi in &par_rules {
            assert!(implies(&seq_cover, phi), "workers={workers}: seq ⊭ par");
        }
    }
}

#[test]
fn discover_high_level_api() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(200));
    let cover = gfd::discover(&g, 3, 20);
    assert!(!cover.is_empty());
    // A cover never contains redundant rules.
    let rules: Vec<Gfd> = cover.iter().map(|d| d.gfd.clone()).collect();
    for i in 0..rules.len() {
        let rest: Vec<Gfd> = rules
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, r)| r.clone())
            .collect();
        assert!(!implies(&rest, &rules[i]));
    }
}

#[test]
fn noise_detection_beats_floor_and_baselines_run() {
    let clean = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(220));
    let cover = gfd::discover_with(&clean, &small_cfg());
    let rules: Vec<Gfd> = cover.iter().map(|d| d.gfd.clone()).collect();

    let noised = inject_noise(
        &clean,
        &NoiseConfig {
            alpha: 0.1,
            beta: 0.8,
            edge_share: 0.2,
            seed: 3,
        },
    );
    let detected = violating_nodes(&noised.graph, &rules);
    let acc = gfd::datagen::detection_accuracy(&detected, &noised.dirty);
    assert!(acc > 0.1, "GFD accuracy too low: {acc}");

    // Baselines execute on the same data.
    let gcfds = gfd::baselines::mine_gcfds(
        &clean,
        &gfd::baselines::GcfdConfig {
            k: 3,
            sigma: 20,
            max_lhs_size: 1,
            values_per_attr: 4,
        },
    );
    let amie = gfd::baselines::mine_amie(
        &clean,
        &gfd::baselines::AmieConfig {
            min_support: 20,
            ..Default::default()
        },
    );
    // GFDs are a superset formalism: at least as many rule shapes.
    assert!(!gcfds.is_empty());
    assert!(!amie.is_empty());
}

#[test]
fn graph_io_roundtrip_preserves_discovery() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Imdb).with_scale(150));
    let text = gfd::graph::io::to_text(&g);
    let h = gfd::graph::io::from_text(&text).expect("parse");
    let a = seq_dis(&g, &small_cfg());
    let b = seq_dis(&h, &small_cfg());
    let key = |r: &DiscoveryResult, g: &Graph| {
        let mut v: Vec<String> = r.gfds.iter().map(|d| d.gfd.display(g.interner())).collect();
        v.sort();
        v
    };
    assert_eq!(key(&a, &g), key(&b, &h));
}

#[test]
fn ablation_no_pruning_explodes_candidates() {
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(200));
    let mut pruned = small_cfg();
    pruned.mine_negative = false;
    let mut unpruned = pruned.clone();
    unpruned.enable_pruning = false;

    let with = seq_dis(&g, &pruned);
    let without = seq_dis(&g, &unpruned);
    assert!(
        without.stats.hspawn.candidates > with.stats.hspawn.candidates,
        "ParGFDn must check more candidates: {} vs {}",
        without.stats.hspawn.candidates,
        with.stats.hspawn.candidates
    );
}
