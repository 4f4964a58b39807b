//! Feature-graded costs and conservative phonetic embeddings.
//!
//! Two pieces, both derived from the articulatory feature bundles in
//! `lexequal_phoneme::features` (PAPERS.md: "Articulatory Feature-based
//! Phonetic Edit Distance"; "Symphonym: Universal Phonetic Embeddings"):
//!
//! 1. [`FeatureCost`] — a graded [`CostModel`] where substituting two
//!    phonemes costs proportionally to how many articulatory features
//!    separate them, replacing the binary within/across-cluster split of
//!    the clustered model. The paper treats the cost matrix as "an
//!    installable resource intended to tune the quality of match for a
//!    specific domain" (§3.2); this is the finest-grained such resource
//!    the inventory supports.
//! 2. [`Embedder`] — deterministic fixed-dimension ([`EMBED_DIM`]) per-name
//!    embeddings with a *provable* lower bound: for the calibrated scale
//!    returned by [`Embedder::conservative_scale`],
//!    `edit_distance(a, b) ≥ scale · l1(embed(a), embed(b))` for every
//!    pair of phoneme strings. A prefilter that rejects a candidate only
//!    when `scale · l1 > k` therefore never drops a true match — verdicts
//!    through the exact kernel stay bit-identical (DESIGN §5j).
//!
//! ## Why the bound holds
//!
//! Each phoneme `p` gets a fixed contribution vector `v(p)` (cluster bin,
//! segment-kind bin, one hashed bin per feature value); a string embeds as
//! the *bag sum* `Σ v(p)` saturated into `u8` lanes. Pooling is
//! order-insensitive by design: positional pooling would let a transposed
//! pair embed far apart while their edit distance is small, destroying any
//! conservative bound. For an optimal edit script turning `a` into `b`,
//! each substitution `x→y` moves the unsaturated bag by at most
//! `‖v(x) − v(y)‖₁` and costs `sub(x, y)`; each insert/delete of `p` moves
//! it by `‖v(p)‖₁` and costs `ins/del(p)`. Taking the worst cost-per-L1
//! ratio over the whole inventory gives a scale with
//! `cost(op) ≥ scale · ΔL1(op)` for every operation, so by the triangle
//! inequality the total distance dominates `scale · ‖Σv(aᵢ) − Σv(bⱼ)‖₁`.
//! Saturation only shrinks per-lane differences
//! (`|min(x,255) − min(y,255)| ≤ |x − y|`), so the bound survives
//! quantization.

use lexequal_matcher::CostModel;
use lexequal_phoneme::features::Features;
use lexequal_phoneme::{ClusterTable, Inventory, Phoneme, PhonemeString};

/// Embedding width in bytes. 32 `u8` lanes: one cache line half, friendly
/// to both the autovectorized L1 loop and the mmap image layout.
pub const EMBED_DIM: usize = 32;

/// An alternative substitution model derived from articulatory features
/// rather than discrete clusters: the cost of substituting two phonemes is
/// proportional to how many features separate them (place, manner,
/// voicing, aspiration for consonants; height, backness, rounding, length
/// for vowels).
#[derive(Debug, Clone, Copy, Default)]
pub struct FeatureCost {
    /// Extra cost floor for any substitution (keeps sub > 0 for unequal
    /// phonemes even when all recorded features agree).
    pub floor: f64,
}

impl FeatureCost {
    /// Model with the default floor of 0.1.
    pub fn new() -> Self {
        FeatureCost { floor: 0.1 }
    }
}

impl CostModel<Phoneme> for FeatureCost {
    fn ins(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    fn del(&self, _t: &Phoneme) -> f64 {
        1.0
    }

    fn sub(&self, a: &Phoneme, b: &Phoneme) -> f64 {
        if a == b {
            return 0.0;
        }
        // dissimilarity is in 0..=4; scale into (floor, 1.0].
        let d = a.features().dissimilarity(&b.features()) as f64;
        (self.floor + (1.0 - self.floor) * d / 4.0).min(1.0)
    }

    fn min_indel(&self) -> f64 {
        1.0
    }
}

/// Distinct small-integer codes for every (feature, value) pair, so each
/// value lands in its own hashed embedding bin. Fieldless enum casts give
/// stable per-variant discriminants.
fn feature_codes(f: &Features) -> [u8; 4] {
    match f {
        Features::Consonant(c) => [
            c.voicing as u8,            // 0..2
            2 + c.place as u8,          // 2..12
            12 + c.manner as u8,        // 12..20
            20 + u8::from(c.aspirated), // 20..22
        ],
        Features::Vowel(v) => [
            24 + v.height as u8,      // 24..31
            31 + v.backness as u8,    // 31..34
            34 + v.roundedness as u8, // 34..36
            36 + v.length as u8,      // 36..38
        ],
    }
}

/// Deterministic per-phoneme contribution tables and the bag-pooled
/// embedding they induce. Embeddings are a pure function of phoneme ids
/// and the cluster table — *not* of any cost model — so vectors persisted
/// in a snapshot stay valid when the serving cost model changes; only the
/// [`conservative_scale`](Self::conservative_scale) is recomputed.
#[derive(Debug)]
pub struct Embedder {
    /// Per-phoneme contribution vector, indexed by [`Phoneme::index`].
    contrib: Vec<[u8; EMBED_DIM]>,
    /// L1 norm of each contribution vector.
    norms: Vec<u32>,
}

impl Embedder {
    /// Build the contribution tables for an inventory clustered by `table`.
    pub fn new(table: &ClusterTable) -> Self {
        let n = Inventory::len();
        let mut contrib = vec![[0u8; EMBED_DIM]; n];
        let mut norms = vec![0u32; n];
        for p in Inventory::iter() {
            let v = &mut contrib[p.index()];
            // Cluster identity dominates (weight 2): like phonemes land in
            // the same bin and contribute nothing to the pair's L1 gap.
            // Tables with more than 16 clusters fold mod 16 — collisions
            // only *shrink* gaps, which weakens the screen but can never
            // break the lower bound.
            v[(table.cluster_of(p).0 % 16) as usize] += 2;
            let f = p.features();
            v[16 + usize::from(matches!(f, Features::Vowel(_)))] += 1;
            for (i, code) in feature_codes(&f).into_iter().enumerate() {
                v[16 + (code as usize * 7 + i * 5) % 16] += 1;
            }
            norms[p.index()] = v.iter().map(|&x| x as u32).sum();
        }
        Embedder { contrib, norms }
    }

    /// Embed a sequence of raw phoneme ids (every byte must be a valid
    /// inventory id, the invariant [`PhonemeString`] storage enforces).
    /// Bag pooling: saturating per-lane sum of the contribution vectors.
    pub fn embed_ids(&self, ids: &[u8]) -> [u8; EMBED_DIM] {
        let mut out = [0u8; EMBED_DIM];
        for &id in ids {
            let v = &self.contrib[id as usize];
            for (o, &c) in out.iter_mut().zip(v.iter()) {
                *o = o.saturating_add(c);
            }
        }
        out
    }

    /// [`embed_ids`](Self::embed_ids) over a phoneme string.
    pub fn embed(&self, s: &PhonemeString) -> [u8; EMBED_DIM] {
        self.embed_ids(s.id_bytes())
    }

    /// The largest `scale` such that
    /// `edit_distance(a, b) ≥ scale · l1(embed(a), embed(b))`
    /// holds for every pair of phoneme strings under `model` (see the
    /// module docs for the argument). Returns `0.0` — screen disabled,
    /// never rejects — when some zero-cost operation moves the embedding
    /// (e.g. the clustered model at intra-cluster cost 0).
    pub fn conservative_scale<M: CostModel<Phoneme>>(&self, model: &M) -> f64 {
        let mut scale = f64::INFINITY;
        for p in Inventory::iter() {
            let norm = self.norms[p.index()] as f64;
            if norm > 0.0 {
                scale = scale.min(model.ins(&p) / norm);
                scale = scale.min(model.del(&p) / norm);
            }
            for q in Inventory::iter() {
                if p == q {
                    continue;
                }
                let delta = l1(&self.contrib[p.index()], &self.contrib[q.index()]) as f64;
                if delta > 0.0 {
                    scale = scale.min(model.sub(&p, &q) / delta);
                }
            }
        }
        if !scale.is_finite() || scale <= 0.0 {
            return 0.0;
        }
        // Haircut: the DP accumulates f64 rounding; shaving a relative
        // 1e-9 keeps the bound strict against any such drift (the L1 side
        // is exact — at most 32 · 255 = 8160, an integer in f64).
        scale * (1.0 - 1e-9)
    }
}

/// L1 distance between two embedding vectors: `u8::abs_diff` accumulated
/// in sixteen-bit sums over [`EMBED_DIM`]-byte chunks (32 · 255 fits), which
/// keeps the lanes a byte or two wide — what lets the compiler vectorize
/// it wherever it is inlined, no intrinsics needed.
#[inline]
pub fn l1(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let chunk = |(a, b): (&[u8], &[u8])| -> u16 {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| u16::from(x.abs_diff(y)))
            .sum()
    };
    (a.chunks(EMBED_DIM).zip(b.chunks(EMBED_DIM)))
        .map(|pair| u64::from(chunk(pair)))
        .sum()
}

#[cfg(test)]
mod feature_cost_tests {
    use super::*;

    fn p(sym: &str) -> Phoneme {
        sym.parse::<PhonemeString>().unwrap()[0]
    }

    #[test]
    fn graded_by_feature_distance() {
        let m = FeatureCost::new();
        // p vs b: voicing only (1 feature) — cheap.
        let pb = m.sub(&p("p"), &p("b"));
        // p vs k: place only — equally cheap.
        let pk = m.sub(&p("p"), &p("k"));
        // p vs z: voicing + place + manner — expensive.
        let pz = m.sub(&p("p"), &p("z"));
        assert!(pb < pz);
        assert_eq!(pb, pk);
        assert!(pb > 0.0);
        // Vowel vs consonant is maximal.
        assert_eq!(m.sub(&p("p"), &p("a")), 1.0);
    }

    #[test]
    fn identical_is_free_and_symmetric() {
        let m = FeatureCost::new();
        assert_eq!(m.sub(&p("s"), &p("s")), 0.0);
        assert_eq!(m.sub(&p("s"), &p("z")), m.sub(&p("z"), &p("s")));
    }

    #[test]
    fn floor_bounds_minimum_substitution() {
        let m = FeatureCost { floor: 0.3 };
        // Any unequal pair costs at least the floor.
        assert!(m.sub(&p("p"), &p("b")) >= 0.3);
    }

    #[test]
    fn identity_symmetry_and_bounds_over_the_whole_inventory() {
        let m = FeatureCost::new();
        for a in Inventory::iter() {
            assert_eq!(m.sub(&a, &a), 0.0, "{a:?} should be free");
            for b in Inventory::iter() {
                let ab = m.sub(&a, &b);
                assert_eq!(ab, m.sub(&b, &a), "{a:?}/{b:?} asymmetric");
                assert!((0.0..=1.0).contains(&ab), "{a:?}/{b:?} out of [0,1]");
                if a != b {
                    assert!(ab >= m.floor, "{a:?}/{b:?} under the floor");
                }
            }
        }
    }

    #[test]
    fn cluster_consistency_within_never_exceeds_across_on_average() {
        // The clustered model's premise restated in graded terms: for
        // every phoneme, substitutions *within* its cluster are on average
        // no more expensive than substitutions across clusters. (The
        // pointwise version is false by design — /p/→/bʰ/ inside the
        // labial-stop cluster flips two features while /p/→/k/ across
        // clusters flips one — so the invariant is the per-phoneme mean.)
        let m = FeatureCost::new();
        let table = ClusterTable::standard();
        for a in Inventory::iter() {
            let (mut within, mut n_within, mut across, mut n_across) = (0.0, 0u32, 0.0, 0u32);
            for b in Inventory::iter() {
                if a == b {
                    continue;
                }
                if table.same_cluster(a, b) {
                    within += m.sub(&a, &b);
                    n_within += 1;
                } else {
                    across += m.sub(&a, &b);
                    n_across += 1;
                }
            }
            if n_within > 0 && n_across > 0 {
                assert!(
                    within / n_within as f64 <= across / n_across as f64 + 1e-12,
                    "{a:?}: mean within-cluster cost exceeds mean across-cluster cost"
                );
            }
        }
    }
}

#[cfg(test)]
mod embed_tests {
    use super::*;
    use lexequal_matcher::edit_distance;
    use lexequal_phoneme::testkit::Rng;
    use std::sync::Arc;

    /// Clustered cost mirroring lexequal's `ClusteredPhonemeCost` — the
    /// core crate depends on this one, so the soundness test re-states the
    /// model locally instead of importing it.
    struct Clustered {
        table: Arc<ClusterTable>,
        intra: f64,
    }

    impl CostModel<Phoneme> for Clustered {
        fn ins(&self, _t: &Phoneme) -> f64 {
            1.0
        }
        fn del(&self, _t: &Phoneme) -> f64 {
            1.0
        }
        fn sub(&self, a: &Phoneme, b: &Phoneme) -> f64 {
            if a == b {
                0.0
            } else if self.table.same_cluster(*a, *b) {
                self.intra
            } else {
                1.0
            }
        }
    }

    #[test]
    fn embeddings_are_deterministic_and_order_insensitive() {
        let e = Embedder::new(&ClusterTable::standard());
        let a: PhonemeString = "neru".parse().unwrap();
        assert_eq!(e.embed(&a), e.embed(&a));
        let rev: PhonemeString = a.iter().rev().copied().collect();
        assert_eq!(e.embed(&a), e.embed(&rev), "bag pooling ignores order");
        assert_eq!(e.embed(&PhonemeString::empty()), [0u8; EMBED_DIM]);
        assert_eq!(l1(&e.embed(&a), &e.embed(&a)), 0);
    }

    #[test]
    fn every_phoneme_contributes() {
        let e = Embedder::new(&ClusterTable::standard());
        for p in Inventory::iter() {
            assert!(
                e.norms[p.index()] > 0,
                "{p:?} has an empty contribution vector"
            );
            // Weight structure: 2 (cluster) + 1 (kind) + 4 features.
            assert_eq!(e.norms[p.index()], 7);
        }
    }

    #[test]
    fn scale_is_positive_for_the_default_models() {
        let e = Embedder::new(&ClusterTable::standard());
        let clustered = Clustered {
            table: Arc::new(ClusterTable::standard()),
            intra: 0.25,
        };
        assert!(e.conservative_scale(&clustered) > 0.0);
        assert!(e.conservative_scale(&FeatureCost::new()) > 0.0);
    }

    #[test]
    fn scale_is_zero_when_some_moving_operation_is_free() {
        // intra-cluster cost 0: same-cluster substitutions are free but
        // still move the feature-hash bins, so no positive scale exists
        // and the screen must disable itself.
        let e = Embedder::new(&ClusterTable::standard());
        let soundex = Clustered {
            table: Arc::new(ClusterTable::standard()),
            intra: 0.0,
        };
        assert_eq!(e.conservative_scale(&soundex), 0.0);
    }

    #[test]
    fn lower_bound_is_sound_on_random_strings() {
        // The load-bearing property: scale · l1 never exceeds the exact
        // distance, under both cost models, across cluster tables.
        for table in [ClusterTable::standard(), ClusterTable::coarse()] {
            let e = Embedder::new(&table);
            let clustered = Clustered {
                table: Arc::new(table),
                intra: 0.25,
            };
            let feature = FeatureCost::new();
            let s_c = e.conservative_scale(&clustered);
            let s_f = e.conservative_scale(&feature);
            let mut rng = Rng::new(0x9e37_79b9_7f4a_7c15);
            for _ in 0..400 {
                let (a, b) = (rng.phonemes(0..=24), rng.phonemes(0..=24));
                let gap = l1(&e.embed(&a), &e.embed(&b)) as f64;
                let d_c = edit_distance(a.as_slice(), b.as_slice(), &clustered);
                let d_f = edit_distance(a.as_slice(), b.as_slice(), feature);
                assert!(
                    s_c * gap <= d_c + 1e-9,
                    "clustered bound violated: {} > {} for {a:?} vs {b:?}",
                    s_c * gap,
                    d_c
                );
                assert!(
                    s_f * gap <= d_f + 1e-9,
                    "feature bound violated: {} > {} for {a:?} vs {b:?}",
                    s_f * gap,
                    d_f
                );
            }
        }
    }

    #[test]
    fn saturation_only_shrinks_gaps() {
        // A 40-repeat string saturates several lanes; the bound must hold
        // against a short string regardless.
        let e = Embedder::new(&ClusterTable::standard());
        let feature = FeatureCost::new();
        let scale = e.conservative_scale(&feature);
        let long: PhonemeString = std::iter::repeat("na".parse::<PhonemeString>().unwrap())
            .take(40)
            .fold(PhonemeString::empty(), |acc, s| acc.concat(&s));
        let short: PhonemeString = "na".parse().unwrap();
        let gap = l1(&e.embed(&long), &e.embed(&short)) as f64;
        let d = edit_distance(long.as_slice(), short.as_slice(), feature);
        assert!(scale * gap <= d + 1e-9);
    }
}
