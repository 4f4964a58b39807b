//! Verification-kernel throughput: old path vs. the screened kernel.
//!
//! The "old" kernel is what every access path ran before the kernel
//! landed: `LexEqual::matches_phonemes(candidate, query, e)` per pair,
//! allocating two fresh DP rows each call. The "new" kernel is
//! [`lexequal::Verifier`] with a prepared query and the store's cached
//! per-name cluster-id vectors — Myers fast-accept / fast-reject screens
//! in front of the same banded DP on reused scratch.
//!
//! Both kernels decide the identical predicate (asserted per threshold),
//! so the comparison is pure throughput.
//!
//! A second sweep compares the pair-at-a-time kernel against the
//! batched [`lexequal::BatchVerifier`] across batch widths (1/4/8/16)
//! and every SIMD backend this machine offers, ending with a headline:
//! the mean speedup at the detected dispatch level and widths 8+.
//!
//! Usage: `verify_kernel [--quick] [--size N] [--queries N]`; the
//! committed `results/verify_kernel.txt` is its stdout.

use lexequal::{available_simd_levels, simd_level, BatchVerifier, PreparedQuery, Verifier};
use lexequal_bench::{operator, print_table, synthetic, timed, timed_best, RunOptions};
use lexequal_phoneme::PhonemeString;

/// Thresholds swept: the paper's quality knee (0.25–0.45) plus a loose
/// setting where fast-accepts dominate.
const THRESHOLDS: [f64; 3] = [0.25, 0.35, 0.45];

fn main() {
    let opts = RunOptions::from_args();
    let op = operator();
    println!(
        "Building synthetic dataset ({} entries)...",
        opts.dataset_size
    );
    let data = synthetic(opts.dataset_size);
    let names: Vec<PhonemeString> = data.entries.iter().map(|e| e.phonemes.clone()).collect();
    // The cached side-tables every NameStore now carries.
    let cluster_ids: Vec<Vec<u8>> = names.iter().map(|p| op.cluster_ids(p)).collect();
    let embeds: Vec<Vec<u8>> = names.iter().map(|p| op.embed_for(p).to_vec()).collect();
    let stride = (names.len() / opts.queries).max(1);
    let queries: Vec<&PhonemeString> = names.iter().step_by(stride).take(opts.queries).collect();
    let pairs = queries.len() * names.len();

    let mut rows = Vec::new();
    for e in THRESHOLDS {
        // Old kernel: the pre-kernel verification loop, verbatim.
        let (old_hits, old_time) = timed(|| {
            let mut hits = 0usize;
            for q in &queries {
                for c in &names {
                    if op.matches_phonemes(c, q, e) {
                        hits += 1;
                    }
                }
            }
            hits
        });

        // New kernel: one long-lived Verifier (as a shard worker holds),
        // one PreparedQuery per query (as the store builds per search).
        let mut verifier = Verifier::new();
        let (new_hits, new_time) = timed(|| {
            let mut hits = 0usize;
            for q in &queries {
                let prepared: PreparedQuery = op.prepare_query(q);
                for (i, (c, ids)) in names.iter().zip(&cluster_ids).enumerate() {
                    if verifier.matches(&op, &prepared, c, Some(ids), Some(&embeds[i]), e) {
                        hits += 1;
                    }
                }
            }
            hits
        });
        assert_eq!(
            old_hits, new_hits,
            "kernels disagree at e={e}: old={old_hits} new={new_hits}"
        );

        let counters = verifier.take_counters();
        let speedup = old_time.as_secs_f64() / new_time.as_secs_f64();
        let mpairs = |t: std::time::Duration| pairs as f64 / t.as_secs_f64() / 1e6;
        rows.push(vec![
            format!("{e:.2}"),
            format!("{old_hits}"),
            format!("{:.2}", mpairs(old_time)),
            format!("{:.2}", mpairs(new_time)),
            format!("{speedup:.2}x"),
            format!("{}", counters.fast_accept),
            format!("{}", counters.fast_reject),
            format!("{}", counters.full_dp),
        ]);
    }

    print_table(
        "Verification kernel: matches_phonemes vs screened Verifier",
        &[
            "e", "matches", "old Mp/s", "new Mp/s", "speedup", "accept", "reject", "full DP",
        ],
        &rows,
    );

    batch_sweep(&op, &names, &cluster_ids, &embeds, &queries);
}

/// Batch widths swept against the pair-at-a-time baseline.
const WIDTHS: [usize; 4] = [1, 4, 8, 16];

/// The batched-kernel sweep: width × SIMD backend, one row per cell,
/// speedups relative to the pair-at-a-time `Verifier` on the same
/// verify-bound workload (every pair screened, cached cluster ids).
fn batch_sweep(
    op: &lexequal::LexEqual,
    names: &[PhonemeString],
    cluster_ids: &[Vec<u8>],
    embeds: &[Vec<u8>],
    queries: &[&PhonemeString],
) {
    let pairs = queries.len() * names.len();
    let mut rows = Vec::new();
    // The speedup the serving layer actually gets: detected SIMD level,
    // production widths (8+), across thresholds.
    let detected = simd_level();
    let mut headline = Vec::new();
    let mpairs = |t: std::time::Duration| pairs as f64 / t.as_secs_f64() / 1e6;
    // Best-of-N timing: this sweep's cells are short enough that one
    // noisy-neighbour window can swamp a single pass.
    const ROUNDS: usize = 9;
    for e in THRESHOLDS {
        // Pair-at-a-time baseline: what the shards ran before batching.
        let mut verifier = Verifier::new();
        let (base_hits, base_time) = timed_best(ROUNDS, || {
            let mut hits = 0usize;
            for q in queries {
                let prepared: PreparedQuery = op.prepare_query(q);
                for (i, (c, ids)) in names.iter().zip(cluster_ids).enumerate() {
                    if verifier.matches(op, &prepared, c, Some(ids), Some(&embeds[i]), e) {
                        hits += 1;
                    }
                }
            }
            hits
        });

        for level in available_simd_levels() {
            for width in WIDTHS {
                let mut bv = BatchVerifier::with_width_and_level(width, level);
                let mut lane_hits: Vec<u32> = Vec::with_capacity(names.len());
                let (batch_hits, batch_time) = timed_best(ROUNDS, || {
                    let mut hits = 0usize;
                    for q in queries {
                        let prepared: PreparedQuery = op.prepare_query(q);
                        lane_hits.clear();
                        bv.verify_ids(
                            op,
                            &prepared,
                            names,
                            Some(cluster_ids),
                            Some(embeds),
                            0..names.len() as u32,
                            e,
                            &mut lane_hits,
                        );
                        hits += lane_hits.len();
                    }
                    hits
                });
                assert_eq!(
                    base_hits, batch_hits,
                    "kernels disagree at e={e} width={width} level={level}"
                );
                let speedup = base_time.as_secs_f64() / batch_time.as_secs_f64();
                rows.push(vec![
                    format!("{e:.2}"),
                    format!("{width}"),
                    level.name().to_string(),
                    format!("{:.2}", mpairs(base_time)),
                    format!("{:.2}", mpairs(batch_time)),
                    format!("{speedup:.2}x"),
                ]);
                if level == detected && width >= 8 {
                    headline.push(speedup);
                }
            }
        }
    }

    print_table(
        "Batched kernel: pair-at-a-time Verifier vs BatchVerifier",
        &["e", "width", "simd", "base Mp/s", "batch Mp/s", "speedup"],
        &rows,
    );

    let headline_mean = headline.iter().sum::<f64>() / headline.len().max(1) as f64;
    println!(
        "\nheadline ({}, width 8+): mean speedup {headline_mean:.2}x",
        detected.name()
    );
}
