//! Interleaved multi-lane Myers screens: one pattern, many texts.
//!
//! The scalar [`MyersPattern::distance`](crate::MyersPattern::distance)
//! recurrence is a single ~10-op dependency chain per text symbol — the
//! CPU retires it far below its issue width because every operation waits
//! on the previous one. Verification, however, screens *batches* of
//! independent candidates against the *same* query pattern, and their
//! recurrences do not depend on each other. This module runs up to
//! [`MAX_LANES`] texts through the recurrence in **lane blocks**: the
//! shared 256-entry `peq` mask table feeds 4 lanes held in one AVX2
//! register (2 per SSE2 register, 4 scalar registers as the portable
//! fallback), so every step advances a block of independent chains at
//! the core's issue width instead of one chain at its dependency depth.
//!
//! Exactness: the recurrence is pure 64-bit bitwise logic plus one
//! wrapping add, and the vector forms (`vpaddq`, `vpand`, `vpor`,
//! `vpxor`, `vpsllq`, `vpsrlq`) are all lane-wise — lane `l` performs
//! *exactly* the word operations the scalar `distance(texts[l])`
//! performs, in the same order, on the same state. The branchless score
//! update reads the same high bit the scalar branches on: `ph & high` is
//! either `0` or `1 << (m-1)`, so shifting it right by `m-1` adds the
//! same 0-or-1. The returned distances are therefore identical to the
//! scalar ones by construction (and pinned by the tests below across
//! every [`SimdLevel`]).

use crate::myers::MyersPattern;
use crate::simd::SimdLevel;

/// Maximum number of texts one blocked call processes. Chosen so a
/// batch keeps several independent blocks in flight while the lane
/// state stays in registers/L1.
pub const MAX_LANES: usize = 16;

/// Lanes per scalar register block. Four `(pv, mv)` state pairs plus
/// the recurrence temporaries fit x86-64's sixteen general registers;
/// wider scalar blocks spill lane state to the stack and reintroduce
/// the store-forwarding stalls blocking is meant to remove.
const BLOCK: usize = 4;

/// One lane-step of the Myers recurrence — the same word operations as
/// the loop body of the scalar [`MyersPattern::distance`]. The score
/// updates are branchless (`setcc`+`add` instead of branches): when
/// lanes interleave, the per-lane horizontal-delta patterns the branch
/// predictor tracks in the scalar loop get shuffled together, and the
/// resulting mispredictions would cost more than both updates.
#[inline(always)]
fn step_lane(peq: &[u64; 256], high: u64, sym: u8, pv: &mut u64, mv: &mut u64, score: &mut usize) {
    let eq = peq[sym as usize];
    let xv = eq | *mv;
    let xh = (((eq & *pv).wrapping_add(*pv)) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    *score += usize::from(ph & high != 0);
    *score -= usize::from(mh & high != 0);
    let ph = (ph << 1) | 1;
    let mh = mh << 1;
    *pv = mh | !(xv | ph);
    *mv = ph & xv;
}

/// Finish `texts[l][common..]` tails one lane at a time from extracted
/// block state — shared by every block kernel.
#[inline(always)]
fn finish_tails<const W: usize>(
    peq: &[u64; 256],
    high: u64,
    common: usize,
    texts: &[&[u8]; W],
    pv: [u64; W],
    mv: [u64; W],
    mut score: [usize; W],
) -> [usize; W] {
    let mut pv = pv;
    let mut mv = mv;
    for l in 0..W {
        for &sym in &texts[l][common..] {
            step_lane(peq, high, sym, &mut pv[l], &mut mv[l], &mut score[l]);
        }
    }
    score
}

/// Advance one scalar register block of [`BLOCK`] lanes to completion:
/// the common prefix interleaved (four independent recurrence chains in
/// flight per iteration), then each lane's tail.
#[inline]
fn run_block(peq: &[u64; 256], high: u64, m: usize, texts: [&[u8]; BLOCK]) -> [usize; BLOCK] {
    // Plain scalar locals per lane (not a state array): element
    // references like `&mut pv[l]` would keep the state addressable and
    // block scalar replacement.
    let (mut pv0, mut pv1, mut pv2, mut pv3) = (!0u64, !0u64, !0u64, !0u64);
    let (mut mv0, mut mv1, mut mv2, mut mv3) = (0u64, 0u64, 0u64, 0u64);
    let (mut sc0, mut sc1, mut sc2, mut sc3) = (m, m, m, m);
    let common = texts.iter().map(|t| t.len()).min().unwrap_or(0);
    // Zipped equal-length prefixes: no per-step bounds checks; each
    // iteration issues four independent recurrence chains.
    let zipped = texts[0][..common]
        .iter()
        .zip(&texts[1][..common])
        .zip(&texts[2][..common])
        .zip(&texts[3][..common]);
    for (((&s0, &s1), &s2), &s3) in zipped {
        step_lane(peq, high, s0, &mut pv0, &mut mv0, &mut sc0);
        step_lane(peq, high, s1, &mut pv1, &mut mv1, &mut sc1);
        step_lane(peq, high, s2, &mut pv2, &mut mv2, &mut sc2);
        step_lane(peq, high, s3, &mut pv3, &mut mv3, &mut sc3);
    }
    finish_tails(
        peq,
        high,
        common,
        &texts,
        [pv0, pv1, pv2, pv3],
        [mv0, mv1, mv2, mv3],
        [sc0, sc1, sc2, sc3],
    )
}

/// Four lanes in one AVX2 register: `pv`/`mv`/`score` are `4 × u64`
/// vectors and every recurrence op is the lane-wise vector form of the
/// scalar one, so each lane's words are bit-identical to the scalar
/// chain. The per-step `peq` feeds come from four scalar loads (the
/// table is shared, only the indices differ per lane).
///
/// # Safety
///
/// Requires AVX2 (callers dispatch on [`SimdLevel::Avx2`], which
/// [`crate::detect_simd_level`] only reports on AVX2 hardware).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_block_avx2(peq: &[u64; 256], high: u64, m: usize, texts: [&[u8]; 4]) -> [usize; 4] {
    use std::arch::x86_64::*;
    let common = texts.iter().map(|t| t.len()).min().unwrap_or(0);
    let (t0, t1) = (&texts[0][..common], &texts[1][..common]);
    let (t2, t3) = (&texts[2][..common], &texts[3][..common]);
    let mut pv = _mm256_set1_epi64x(-1);
    let mut mv = _mm256_setzero_si256();
    let mut score = _mm256_set1_epi64x(m as i64);
    let ones = _mm256_set1_epi64x(1);
    let all = _mm256_set1_epi64x(-1);
    let highv = _mm256_set1_epi64x(high as i64);
    // `_mm256_srl_epi64` takes its count from an XMM register, so the
    // pattern-length shift stays loop-invariant.
    let shift = _mm_cvtsi32_si128((m - 1) as i32);
    for step in 0..common {
        let eq = _mm256_set_epi64x(
            peq[t3[step] as usize] as i64,
            peq[t2[step] as usize] as i64,
            peq[t1[step] as usize] as i64,
            peq[t0[step] as usize] as i64,
        );
        let xv = _mm256_or_si256(eq, mv);
        let add = _mm256_add_epi64(_mm256_and_si256(eq, pv), pv);
        let xh = _mm256_or_si256(_mm256_xor_si256(add, pv), eq);
        // `!x` is `x ^ !0` lane-wise.
        let ph = _mm256_or_si256(mv, _mm256_xor_si256(_mm256_or_si256(xh, pv), all));
        let mh = _mm256_and_si256(pv, xh);
        // score ± the high bit, shifted down to 0-or-1.
        score = _mm256_add_epi64(score, _mm256_srl_epi64(_mm256_and_si256(ph, highv), shift));
        score = _mm256_sub_epi64(score, _mm256_srl_epi64(_mm256_and_si256(mh, highv), shift));
        let ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), ones);
        let mh = _mm256_slli_epi64(mh, 1);
        pv = _mm256_or_si256(mh, _mm256_xor_si256(_mm256_or_si256(xv, ph), all));
        mv = _mm256_and_si256(ph, xv);
    }
    let mut pvs = [0u64; 4];
    let mut mvs = [0u64; 4];
    let mut scs = [0u64; 4];
    _mm256_storeu_si256(pvs.as_mut_ptr().cast(), pv);
    _mm256_storeu_si256(mvs.as_mut_ptr().cast(), mv);
    _mm256_storeu_si256(scs.as_mut_ptr().cast(), score);
    finish_tails(
        peq,
        high,
        common,
        &texts,
        pvs,
        mvs,
        [
            scs[0] as usize,
            scs[1] as usize,
            scs[2] as usize,
            scs[3] as usize,
        ],
    )
}

/// Two lanes in one SSE2 register — the x86-64 baseline form of
/// [`run_block_avx2`], same lane-wise ops, same exactness argument.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn run_block_sse2(peq: &[u64; 256], high: u64, m: usize, texts: [&[u8]; 2]) -> [usize; 2] {
    use std::arch::x86_64::*;
    // SSE2 is unconditionally part of the x86-64 baseline, so callers
    // need no runtime gate and no `unsafe` feature promise.
    let common = texts[0].len().min(texts[1].len());
    let (t0, t1) = (&texts[0][..common], &texts[1][..common]);
    let mut pv = _mm_set1_epi64x(-1);
    let mut mv = _mm_setzero_si128();
    let mut score = _mm_set1_epi64x(m as i64);
    let ones = _mm_set1_epi64x(1);
    let all = _mm_set1_epi64x(-1);
    let highv = _mm_set1_epi64x(high as i64);
    let shift = _mm_cvtsi32_si128((m - 1) as i32);
    for step in 0..common {
        let eq = _mm_set_epi64x(peq[t1[step] as usize] as i64, peq[t0[step] as usize] as i64);
        let xv = _mm_or_si128(eq, mv);
        let add = _mm_add_epi64(_mm_and_si128(eq, pv), pv);
        let xh = _mm_or_si128(_mm_xor_si128(add, pv), eq);
        let ph = _mm_or_si128(mv, _mm_xor_si128(_mm_or_si128(xh, pv), all));
        let mh = _mm_and_si128(pv, xh);
        score = _mm_add_epi64(score, _mm_srl_epi64(_mm_and_si128(ph, highv), shift));
        score = _mm_sub_epi64(score, _mm_srl_epi64(_mm_and_si128(mh, highv), shift));
        let ph = _mm_or_si128(_mm_slli_epi64(ph, 1), ones);
        let mh = _mm_slli_epi64(mh, 1);
        pv = _mm_or_si128(mh, _mm_xor_si128(_mm_or_si128(xv, ph), all));
        mv = _mm_and_si128(ph, xv);
    }
    let mut pvs = [0u64; 2];
    let mut mvs = [0u64; 2];
    let mut scs = [0u64; 2];
    unsafe {
        _mm_storeu_si128(pvs.as_mut_ptr().cast(), pv);
        _mm_storeu_si128(mvs.as_mut_ptr().cast(), mv);
        _mm_storeu_si128(scs.as_mut_ptr().cast(), score);
    }
    finish_tails(
        peq,
        high,
        common,
        &texts,
        pvs,
        mvs,
        [scs[0] as usize, scs[1] as usize],
    )
}

impl MyersPattern {
    /// Exact Levenshtein distance between the pattern and each of
    /// `texts`, computed in interleaved lane blocks on the requested
    /// backend; `out[l]` receives `self.distance(texts[l])` bit-for-bit
    /// regardless of `level`.
    ///
    /// # Panics
    ///
    /// Panics when `texts.len() > MAX_LANES` or `out` is shorter than
    /// `texts`.
    pub fn distance_batch(&self, texts: &[&[u8]], out: &mut [usize], level: SimdLevel) {
        let w = texts.len();
        assert!(w <= MAX_LANES, "at most {MAX_LANES} lanes per call");
        assert!(out.len() >= w, "out must hold one distance per text");
        let m = self.len();
        let high = 1u64 << (m - 1);
        let peq = self.peq();
        let mut l = 0;
        #[cfg(target_arch = "x86_64")]
        {
            if level == SimdLevel::Avx2 {
                while l + 4 <= w {
                    let block = [texts[l], texts[l + 1], texts[l + 2], texts[l + 3]];
                    // SAFETY: the Avx2 level is only dispatched on CPUs
                    // that report AVX2 (see `detect_simd_level`).
                    let scores = unsafe { run_block_avx2(peq, high, m, block) };
                    out[l..l + 4].copy_from_slice(&scores);
                    l += 4;
                }
            }
            if level != SimdLevel::Scalar {
                // AVX2 leftovers (< 4 lanes) and the whole SSE2 level
                // drain through the 2-lane baseline kernel.
                while l + 2 <= w {
                    // SAFETY: SSE2 is part of the x86-64 baseline.
                    let scores = unsafe { run_block_sse2(peq, high, m, [texts[l], texts[l + 1]]) };
                    out[l..l + 2].copy_from_slice(&scores);
                    l += 2;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = level;
        if level == SimdLevel::Scalar {
            while l + BLOCK <= w {
                let block = [texts[l], texts[l + 1], texts[l + 2], texts[l + 3]];
                let scores = run_block(peq, high, m, block);
                out[l..l + BLOCK].copy_from_slice(&scores);
                l += BLOCK;
            }
        }
        // Leftover lanes run the scalar recurrence — same operations,
        // same results.
        for i in l..w {
            out[i] = self.distance(texts[i].iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::available_simd_levels;
    use lexequal_phoneme::testkit::Rng;

    #[test]
    fn batch_equals_scalar_on_mixed_length_texts() {
        let mut rng = Rng::new(0xbadc_0001);
        let strings: Vec<Vec<u8>> = (0..48)
            .map(|_| rng.vec(0..=79, |rng| rng.below(7) as u8))
            .collect();
        for plen in [1usize, 5, 31, 64] {
            let pattern = rng.vec(plen..=plen, |rng| rng.below(7) as u8);
            let pat = MyersPattern::build(pattern.iter().copied()).unwrap();
            for level in available_simd_levels() {
                for width in 1..=MAX_LANES {
                    for chunk in strings.chunks(width) {
                        let texts: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                        let mut out = [0usize; MAX_LANES];
                        pat.distance_batch(&texts, &mut out, level);
                        for (l, t) in texts.iter().enumerate() {
                            assert_eq!(
                                out[l],
                                pat.distance(t.iter().copied()),
                                "plen={plen} level={level} width={width} lane={l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_texts_and_empty_batches() {
        let pat = MyersPattern::build([1u8, 2, 3]).unwrap();
        for level in available_simd_levels() {
            let mut out = [99usize; MAX_LANES];
            pat.distance_batch(&[], &mut out, level);
            assert_eq!(out[0], 99, "empty batch writes nothing");
            let texts: [&[u8]; 4] = [&[], b"\x01\x02\x03", &[], b"\x01\x02\x03"];
            pat.distance_batch(&texts, &mut out, level);
            assert_eq!(out[0], 3, "empty text costs the whole pattern");
            assert_eq!(out[1], 0);
            assert_eq!(out[2], 3);
            assert_eq!(out[3], 0);
        }
    }

    #[test]
    #[should_panic(expected = "lanes per call")]
    fn oversized_batch_panics() {
        let pat = MyersPattern::build([1u8]).unwrap();
        let texts = [b"\x01".as_slice(); MAX_LANES + 1];
        let mut out = [0usize; MAX_LANES + 1];
        pat.distance_batch(&texts, &mut out, SimdLevel::Scalar);
    }
}
