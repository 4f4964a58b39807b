//! Shard-scaling comparison: the sharded serving layer vs the unsharded
//! library store, on the paper §5 synthetic dataset.
//!
//! ```sh
//! cargo run --release -p lexequal-bench --bin service_scaling -- [--size N] [--clients N]
//! ```
//!
//! Two reports in one run:
//!
//! 1. single-threaded search latency of the plain [`NameStore`] — the
//!    baseline every shard count must amortize its channel hops against;
//! 2. the full `loadgen` closed-loop comparison across shard counts,
//!    written to `results/service_bench.json`.
//!
//! Shard scaling is bounded by the host's `available_parallelism`; the
//! report records it so a flat curve on a small container is
//! distinguishable from a real regression.

use lexequal::{MatchConfig, NameStore, QgramMode, SearchMethod};
use lexequal_bench::*;
use lexequal_service::loadgen::{self, LoadgenConfig};

const THRESHOLD: f64 = 0.35;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let size = flag("--size", 50_000);
    let clients = flag("--clients", 4);
    let ops = flag("--ops", 250);

    println!("building synthetic dataset (~{size} entries) …");
    let dataset = lexequal_lexicon::build_dataset(&MatchConfig::default(), size);
    println!("{} names\n", dataset.len());

    // Baseline: the unsharded library store, searched inline.
    let mut store = NameStore::new(MatchConfig::default());
    store.extend_transformed(dataset.clone());
    let (_, build_time) = timed(|| store.build_qgram(3, QgramMode::Strict));
    println!("unsharded q-gram build: {}", fmt_duration(build_time));
    let stride = (dataset.len() / 64).max(1);
    let queries: Vec<_> = dataset
        .iter()
        .step_by(stride)
        .take(64)
        .map(|e| e.phonemes.clone())
        .collect();
    let (hits, inline_time) = timed(|| {
        let mut hits = 0usize;
        for q in &queries {
            hits += store
                .search_phonemes(q, THRESHOLD, SearchMethod::Qgram)
                .ids
                .len();
        }
        hits
    });
    println!(
        "unsharded inline search: {} queries, {} matches, {} total ({:.1} q/s)\n",
        queries.len(),
        hits,
        fmt_duration(inline_time),
        queries.len() as f64 / inline_time.as_secs_f64().max(f64::EPSILON),
    );

    // The closed-loop sharded comparison.
    let config = LoadgenConfig {
        dataset_size: size,
        clients,
        ops_per_client: ops,
        shard_counts: vec![1, 2, 4],
        method: SearchMethod::Qgram,
        threshold: THRESHOLD,
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&config);
    println!(
        "host parallelism: {} (shard scaling cannot exceed it)",
        report.available_parallelism
    );
    let rows: Vec<Vec<String>> = report
        .runs
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                format!("{:.1}", r.throughput),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p95_us),
                format!("{:.1}", r.p99_us),
                format!("{}/{}", r.cache_hits, r.cache_hits + r.cache_misses),
            ]
        })
        .collect();
    print_table(
        "sharded service, closed loop",
        &["shards", "ops/s", "p50 µs", "p95 µs", "p99 µs", "cache hit"],
        &rows,
    );

    let out = std::path::Path::new("results/service_bench.json");
    loadgen::write_json(&report, out).expect("write report");
    println!("\nwrote {}", out.display());
}
