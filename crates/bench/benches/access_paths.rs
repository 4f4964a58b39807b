//! The headline comparison as a microbenchmark: one phonetic selection
//! query under each access path (scan / q-gram / phonetic index /
//! BK-tree) over a 10K-entry slice of the synthetic dataset, plus the
//! BK-tree build over the same slice.

use criterion::{criterion_group, criterion_main, Criterion};
use lexequal::{MatchConfig, NameStore, QgramMode, SearchMethod};
use lexequal_bench::synthetic;
use std::hint::black_box;

fn bench_access_paths(c: &mut Criterion) {
    let data = synthetic(10_000);
    let mut store = NameStore::new(MatchConfig::default());
    store
        .extend(data.entries.iter().map(|e| (e.text.clone(), e.language)))
        .expect("bulk load");
    store.build_qgram(3, QgramMode::Strict);
    store.build_phonetic_index();
    store.build_bktree();

    let queries: Vec<_> = data
        .entries
        .iter()
        .step_by(data.len() / 8)
        .map(|e| e.phonemes.clone())
        .collect();

    let mut g = c.benchmark_group("access_paths");
    g.sample_size(10);
    for (name, method) in [
        ("scan", SearchMethod::Scan),
        ("qgram", SearchMethod::Qgram),
        ("phonetic_index", SearchMethod::PhoneticIndex),
        ("bktree", SearchMethod::BkTree),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                for q in &queries {
                    black_box(store.search_phonemes(q, 0.25, method));
                }
            })
        });
    }
    // What standing the metric index up costs (the daemon pays it at
    // every `--preload` start and after every mmap load).
    g.bench_function("bktree_build", |b| b.iter(|| store.build_bktree()));
    g.finish();
}

criterion_group!(benches, bench_access_paths);
criterion_main!(benches);
