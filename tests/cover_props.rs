//! The cover engine against a naive reference (proptest).
//!
//! `Σ` comes from `generate_gfds` over a small knowledge base of a random
//! profile, with a random seed, size and specialization rate. On every
//! such `Σ`:
//!
//! 1. the engine's survivors equal a whole-`Σ` fixpoint removal loop's,
//!    index for index;
//! 2. the cover implies `Σ`;
//! 3. the cover is minimal: no member is implied by the others;
//! 4. grouped `ParCover` keeps the same survivors for workers {1, 2, 4},
//!    simulated and threaded;
//! 5. the extended cover of the lifted rules keeps the same survivors.

use std::cmp::Reverse;
use std::sync::OnceLock;

use gfd::core::cover_indices;
use gfd::extended::xcover_indices;
use gfd::logic::implies_refs;
use gfd::prelude::*;
use proptest::prelude::*;

const PROFILES: [KbProfile; 3] = [KbProfile::Yago2, KbProfile::Dbpedia, KbProfile::Imdb];

/// One small knowledge base per profile, built once.
fn kb(profile: usize) -> &'static Graph {
    static KBS: [OnceLock<Graph>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    KBS[profile].get_or_init(|| knowledge_base(&KbConfig::new(PROFILES[profile]).with_scale(120)))
}

/// The cover loop as `SeqCover` first wrote it: every rule tested against
/// all other live rules of `Σ`, most specific first (edges, nodes, premise
/// count, then index), repeated until a pass removes nothing.
fn reference_cover(sigma: &[Gfd]) -> Vec<usize> {
    let mut alive = vec![true; sigma.len()];
    let mut order: Vec<usize> = (0..sigma.len()).collect();
    order.sort_by_key(|&i| {
        let q = sigma[i].pattern();
        (
            Reverse((q.edge_count(), q.node_count(), sigma[i].lhs().len())),
            i,
        )
    });
    loop {
        let mut changed = false;
        for &i in &order {
            if !alive[i] {
                continue;
            }
            let rest = sigma
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && alive[*j])
                .map(|(_, g)| g);
            if implies_refs(rest, &sigma[i]) {
                alive[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..sigma.len()).filter(|&i| alive[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_cover_matches_reference(
        profile in 0usize..3,
        seed in 0u64..1_000,
        count in 10usize..=80,
        spec_pct in 0u32..=90,
    ) {
        let sigma = generate_gfds(
            kb(profile),
            &GfdGenConfig {
                count,
                specialization_rate: spec_pct as f64 / 100.0,
                seed,
                ..Default::default()
            },
        );
        let kept = cover_indices(&sigma);
        prop_assert_eq!(&kept, &reference_cover(&sigma), "engine vs reference");

        let cover: Vec<Gfd> = kept.iter().map(|&i| sigma[i].clone()).collect();
        for (i, phi) in sigma.iter().enumerate() {
            prop_assert!(implies(&cover, phi), "cover does not imply rule {}", i);
        }
        for (c, phi) in cover.iter().enumerate() {
            let others = cover
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != c)
                .map(|(_, g)| g);
            prop_assert!(!implies_refs(others, phi), "survivor {} is redundant", kept[c]);
        }

        for mode in [ExecMode::Simulated, ExecMode::Threads] {
            for workers in [1, 2, 4] {
                let par = par_cover(&sigma, workers, mode, true).expect("fault-free");
                prop_assert_eq!(&par.cover, &kept, "ParCover {:?} at {} workers", mode, workers);
            }
        }

        let lifted: Vec<XGfd> = sigma.iter().map(XGfd::from_base).collect();
        prop_assert_eq!(&xcover_indices(&lifted), &kept, "extended cover of the lifted rules");
    }
}
