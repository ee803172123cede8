//! Microbenchmarks for the hot kernels: subgraph matching, incremental
//! joins, closure computation, canonical codes, implication.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gfd_core::{evaluate, LiteralCatalog, MatchTable};
use gfd_datagen::{knowledge_base, KbConfig, KbProfile};
use gfd_logic::{implies, Gfd, Literal, Rhs};
use gfd_pattern::{
    canonical_code, extend_matches, find_all, pattern_support, End, Extension, PLabel, Pattern,
};

fn bench_micro(c: &mut Criterion) {
    let g = knowledge_base(&KbConfig::new(KbProfile::Yago2).with_scale(800));
    let i = g.interner();
    let person = PLabel::Is(i.lookup_label("person").unwrap());
    let create = PLabel::Is(i.lookup_label("create").unwrap());
    let product = PLabel::Is(i.lookup_label("product").unwrap());
    let receive = PLabel::Is(i.lookup_label("receive").unwrap());
    let award = PLabel::Is(i.lookup_label("award").unwrap());
    let q1 = Pattern::edge(person, create, product);
    let ext = Extension {
        src: End::Var(1),
        dst: End::New(award),
        label: receive,
    };
    let q2 = q1.extend(&ext);

    c.bench_function("match/find_all one-edge", |b| {
        b.iter(|| black_box(find_all(black_box(&q1), &g).len()))
    });
    c.bench_function("match/pivot support two-edge", |b| {
        b.iter(|| black_box(pattern_support(black_box(&q2), &g)))
    });

    let base = find_all(&q1, &g);
    c.bench_function("match/incremental join", |b| {
        b.iter(|| black_box(extend_matches(&q1, &base, &ext, &g).len()))
    });

    let ty = i.lookup_attr("type").unwrap();
    let table = MatchTable::build(&q1, &base, &g, &[ty]);
    let film = gfd_graph::Value::Str(i.lookup_symbol("film").unwrap());
    let producer = gfd_graph::Value::Str(i.lookup_symbol("producer").unwrap());
    let x = vec![Literal::constant(1, ty, film)];
    let rhs = Rhs::Lit(Literal::constant(0, ty, producer));
    c.bench_function("validate/candidate scan", |b| {
        b.iter(|| black_box(evaluate(&table, &x, &rhs).support))
    });
    c.bench_function("validate/catalog harvest", |b| {
        b.iter(|| black_box(LiteralCatalog::harvest(&table, 5, 10).len()))
    });

    c.bench_function("canon/code 3-node pattern", |b| {
        b.iter(|| black_box(canonical_code(black_box(&q2))))
    });

    let phi = Gfd::new(q1.clone(), x.clone(), rhs);
    let wild = Gfd::new(
        Pattern::edge(PLabel::Wildcard, create, PLabel::Wildcard),
        x.clone(),
        rhs,
    );
    c.bench_function("logic/implication check", |b| {
        b.iter(|| black_box(implies(std::slice::from_ref(&wild), &phi)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_micro
}
criterion_main!(benches);
