//! SIMD-accelerated banded DP over a dense substitution matrix, with
//! runtime dispatch.
//!
//! [`within_distance_dense`] decides `editdistance(left, right) <= k` for
//! symbol-id strings under a *dense* cost model — unit insert/delete, and
//! substitution cost looked up in a caller-provided row-major `N×N`
//! `f64` matrix (`matrix[a * n_syms + b]`). It is the specialization of
//! [`within_distance_scratch`](crate::within_distance_scratch) the
//! verification kernel's DP drain runs: same band, same early exit, and —
//! critically — **the same floats in the same order per cell**, so its
//! verdict is bit-for-bit identical to the generic form (pinned by the
//! tests below and by `lexequal`'s differential suite).
//!
//! The inner column loop has three backends selected by [`SimdLevel`]:
//!
//! * `scalar` — a verbatim transcription of the generic loop;
//! * `sse2` — the x86-64 baseline: the data-parallel half of the cell
//!   recurrence (`min(prev[i-1] + sub, prev[i] + 1)`) two cells at a
//!   time, then a scalar scan for the in-column delete dependency;
//! * `avx2` — the same split four cells wide, with the substitution-row
//!   loads issued as hardware gathers from the cache-resident matrix
//!   (`vgatherqpd`; the per-symbol row offsets are precomputed once per
//!   call into the scratch).
//!
//! Exactness of the split: the scalar loop computes each cell as
//! `min(sub, ins, del)` where `del` reads the *final* value of the cell
//! below. Computing `t[i] = min(sub_i, ins_i)` first (vectorized — both
//! operands live in the previous column, so cells are independent) and
//! then scanning `cur[i] = min(t[i], cur[i-1] + 1)` evaluates the same
//! three-way minimum of the same IEEE values; `addpd`/`minpd` are
//! per-lane IEEE operations, all operands are non-negative or `+inf`
//! (no NaNs, no `-0.0`), so the selected minima are bitwise identical.
//!
//! Dispatch is decided once per process by [`simd_level`]: the
//! `LEXEQUAL_FORCE_SCALAR=1` environment variable pins the scalar
//! backend (for differential testing and triage), otherwise x86-64 gets
//! `avx2` when the CPU reports it and `sse2` (the architectural
//! baseline) when not; every other architecture runs scalar.

use crate::banded::DpScratch;
use std::sync::OnceLock;

/// Which inner-loop backend the dense DP uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable fallback; also what `LEXEQUAL_FORCE_SCALAR=1` pins.
    Scalar,
    /// x86-64 baseline: 2-wide `f64` column kernel.
    Sse2,
    /// 4-wide `f64` column kernel with gathered substitution rows.
    Avx2,
}

impl SimdLevel {
    /// Wire/report name (`scalar` | `sse2` | `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probe the environment and CPU for the dispatch decision —
/// [`simd_level`] caches this; call it directly only to observe a
/// changed environment (tests).
pub fn detect_simd_level() -> SimdLevel {
    if std::env::var_os("LEXEQUAL_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0") {
        return SimdLevel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86-64 baseline: always present.
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

/// The process-wide backend, selected once at first use (runtime feature
/// detection + `LEXEQUAL_FORCE_SCALAR` override) and then fixed.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect_simd_level)
}

/// Every backend that can run on this machine (scalar always; the vector
/// levels when the CPU has them) — what the differential suites iterate.
pub fn available_simd_levels() -> Vec<SimdLevel> {
    let mut levels = vec![SimdLevel::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        levels.push(SimdLevel::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(SimdLevel::Avx2);
        }
    }
    levels
}

/// Decide `editdistance(left, right) <= k` under unit indels and the
/// dense substitution matrix `matrix` (`N×N` row-major, `N = n_syms`,
/// cost of substituting `a` by `b` at `matrix[a * n_syms + b]`).
///
/// Bit-identical to
/// [`within_distance_scratch`](crate::within_distance_scratch) with a
/// cost model wrapping the same matrix, on any [`SimdLevel`].
///
/// # Panics
///
/// Panics when `matrix` is smaller than `n_syms * n_syms` or any symbol
/// id in `left`/`right` is `>= n_syms` (the vector backends read the
/// matrix through raw gathers, so the bounds are checked up front).
pub fn within_distance_dense(
    left: &[u8],
    right: &[u8],
    k: f64,
    matrix: &[f64],
    n_syms: usize,
    scratch: &mut DpScratch,
    level: SimdLevel,
) -> bool {
    assert!(matrix.len() >= n_syms * n_syms, "matrix must be N x N");
    assert!(
        left.iter().chain(right).all(|&s| (s as usize) < n_syms),
        "symbol id out of matrix range"
    );
    if k < 0.0 {
        return false;
    }
    let (n, m) = (left.len(), right.len());
    // Unit indels: |n - m| of them are unavoidable (min_indel = 1).
    if n.abs_diff(m) as f64 > k {
        return false;
    }
    if n == 0 || m == 0 {
        // Distance is one unit indel per symbol of the non-empty side.
        return n.max(m) as f64 <= k + 1e-12;
    }

    let band = k.floor() as usize; // k / min_indel with min_indel = 1

    // Short bands: the vector column kernels pay a prefix-min fix-up
    // pass and gather setup that only amortize over wide bands; below
    // this many band cells the scalar column wins, and every backend
    // computes the identical floats, so this is pure perf dispatch.
    const DENSE_SIMD_MIN_CELLS: usize = 16;
    let level = if n.min(2 * band + 1) < DENSE_SIMD_MIN_CELLS {
        SimdLevel::Scalar
    } else {
        level
    };

    let inf = f64::INFINITY;
    scratch.prev.clear();
    scratch.prev.resize(n + 1, inf);
    scratch.cur.clear();
    scratch.cur.resize(n + 1, inf);
    // Row offsets of the left symbols into the matrix, gather-ready.
    scratch.off.clear();
    scratch
        .off
        .extend(left.iter().map(|&s| (s as usize * n_syms) as i64));
    let off = &scratch.off;
    let mut prev = &mut scratch.prev;
    let mut cur = &mut scratch.cur;
    prev[0] = 0.0;
    for i in 1..=n.min(band) {
        prev[i] = prev[i - 1] + 1.0;
    }

    for j in 1..=m {
        let lo = j.saturating_sub(band);
        let hi = (j + band).min(n);
        if lo > hi {
            return false;
        }
        // `row[off[i]]` is `matrix[left[i] * n_syms + right[j-1]]`.
        let row = &matrix[right[j - 1] as usize..];
        cur[lo.saturating_sub(1)..=hi].fill(inf);
        if lo == 0 {
            cur[0] = prev[0] + 1.0;
        }
        let mut col_min = if lo == 0 { cur[0] } else { inf };
        let start = lo.max(1);
        match level {
            SimdLevel::Scalar => column_scalar(off, row, prev, cur, start, hi, &mut col_min),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is the x86-64 baseline; bounds were checked
            // above, and the kernel only reads `prev[start-1..=hi]`,
            // `off[start-1..hi]` and `row[off[..]]`, all in range.
            SimdLevel::Sse2 => unsafe { column_sse2(off, row, prev, cur, start, hi, &mut col_min) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers obtain `Avx2` only from `simd_level` /
            // `available_simd_levels`, which gate it on CPU detection;
            // the gather indexes `row[off[..]]`, in range per the
            // up-front bounds check.
            SimdLevel::Avx2 => unsafe { column_avx2(off, row, prev, cur, start, hi, &mut col_min) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => column_scalar(off, row, prev, cur, start, hi, &mut col_min),
        }
        if col_min > k + 1e-12 {
            return false;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n] <= k + 1e-12
}

/// The generic inner loop, specialized to unit indels + matrix lookups —
/// a verbatim transcription of `within_distance_scratch`'s cell order.
fn column_scalar(
    off: &[i64],
    row: &[f64],
    prev: &[f64],
    cur: &mut [f64],
    start: usize,
    hi: usize,
    col_min: &mut f64,
) {
    for i in start..=hi {
        let mut best = prev[i - 1] + row[off[i - 1] as usize];
        let insert = prev[i] + 1.0; // prev[i] is inf outside band
        if insert < best {
            best = insert;
        }
        let delete = cur[i - 1] + 1.0;
        if delete < best {
            best = delete;
        }
        cur[i] = best;
        if best < *col_min {
            *col_min = best;
        }
    }
}

/// The scalar scan that resolves the in-column delete dependency after a
/// vector pass filled `cur[start..=hi]` with `min(sub, ins)` per cell.
#[cfg(target_arch = "x86_64")]
#[inline]
fn delete_scan(cur: &mut [f64], start: usize, hi: usize, col_min: &mut f64) {
    for i in start..=hi {
        let delete = cur[i - 1] + 1.0;
        if delete < cur[i] {
            cur[i] = delete;
        }
        if cur[i] < *col_min {
            *col_min = cur[i];
        }
    }
}

/// # Safety
///
/// Requires SSE2 (always true on x86-64) and, for all `i` in
/// `start..=hi`: `i <= cur.len() - 1`, `i <= prev.len() - 1`,
/// `off[i - 1]` in bounds of `off`, and `row[off[i - 1]]` in bounds.
#[cfg(target_arch = "x86_64")]
unsafe fn column_sse2(
    off: &[i64],
    row: &[f64],
    prev: &[f64],
    cur: &mut [f64],
    start: usize,
    hi: usize,
    col_min: &mut f64,
) {
    use std::arch::x86_64::*;
    let ones = _mm_set1_pd(1.0);
    let mut i = start;
    // Pass 1: cur[i] = min(prev[i-1] + sub_i, prev[i] + 1), two cells at
    // a time (both operands come from the previous column — no
    // dependency between cells).
    while i < hi {
        let sub = _mm_set_pd(
            *row.get_unchecked(*off.get_unchecked(i) as usize),
            *row.get_unchecked(*off.get_unchecked(i - 1) as usize),
        );
        let diag = _mm_loadu_pd(prev.as_ptr().add(i - 1));
        let ins = _mm_loadu_pd(prev.as_ptr().add(i));
        let t = _mm_min_pd(_mm_add_pd(diag, sub), _mm_add_pd(ins, ones));
        _mm_storeu_pd(cur.as_mut_ptr().add(i), t);
        i += 2;
    }
    pass1_tail(off, row, prev, cur, i, hi);
    // Pass 2: the delete scan (sequential by nature, but one add + two
    // compares per cell against the gather-heavy pass above).
    delete_scan(cur, start, hi, col_min);
}

/// # Safety
///
/// Requires AVX2, plus the same bounds as [`column_sse2`]; the
/// substitution loads are hardware gathers `row[off[i-1]]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn column_avx2(
    off: &[i64],
    row: &[f64],
    prev: &[f64],
    cur: &mut [f64],
    start: usize,
    hi: usize,
    col_min: &mut f64,
) {
    use std::arch::x86_64::*;
    let ones = _mm256_set1_pd(1.0);
    let mut i = start;
    while i + 3 <= hi {
        let idx = _mm256_loadu_si256(off.as_ptr().add(i - 1) as *const __m256i);
        let sub = _mm256_i64gather_pd::<8>(row.as_ptr(), idx);
        let diag = _mm256_loadu_pd(prev.as_ptr().add(i - 1));
        let ins = _mm256_loadu_pd(prev.as_ptr().add(i));
        let t = _mm256_min_pd(_mm256_add_pd(diag, sub), _mm256_add_pd(ins, ones));
        _mm256_storeu_pd(cur.as_mut_ptr().add(i), t);
        i += 4;
    }
    pass1_tail(off, row, prev, cur, i, hi);
    delete_scan(cur, start, hi, col_min);
}

/// Scalar remainder of pass 1 for the vector kernels.
#[cfg(target_arch = "x86_64")]
#[inline]
fn pass1_tail(off: &[i64], row: &[f64], prev: &[f64], cur: &mut [f64], from: usize, hi: usize) {
    for i in from..=hi {
        let mut best = prev[i - 1] + row[off[i - 1] as usize];
        let insert = prev[i] + 1.0;
        if insert < best {
            best = insert;
        }
        cur[i] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::within_distance_scratch;
    use lexequal_phoneme::testkit::Rng;

    /// A dense matrix as a generic cost model — the reference the SIMD
    /// kernels must reproduce bit-for-bit.
    struct MatrixCost<'a> {
        matrix: &'a [f64],
        n: usize,
    }

    impl CostModel<u8> for &MatrixCost<'_> {
        fn ins(&self, _t: &u8) -> f64 {
            1.0
        }
        fn del(&self, _t: &u8) -> f64 {
            1.0
        }
        fn sub(&self, a: &u8, b: &u8) -> f64 {
            self.matrix[*a as usize * self.n + *b as usize]
        }
    }

    #[test]
    fn dense_dp_matches_generic_on_every_backend() {
        let n_syms = 9usize;
        let mut rng = Rng::new(0x51d3_77aa);
        // A symmetric-ish matrix with zero diagonal and fractional costs.
        let mut matrix = vec![0.0f64; n_syms * n_syms];
        for a in 0..n_syms {
            for b in 0..n_syms {
                if a != b {
                    matrix[a * n_syms + b] = 0.25 + rng.below(4) as f64 * 0.25;
                }
            }
        }
        let model = MatrixCost {
            matrix: &matrix,
            n: n_syms,
        };
        let strings: Vec<Vec<u8>> = (0..40)
            .map(|_| rng.vec(0..=69, |rng| rng.below(n_syms) as u8))
            .collect();
        let levels = available_simd_levels();
        assert!(levels.contains(&SimdLevel::Scalar));
        let mut scratch = DpScratch::new();
        let mut reference_scratch = DpScratch::new();
        for a in &strings {
            for b in &strings {
                for k in [0.0, 0.3, 1.0, 2.75, 7.5, 40.0] {
                    let want = within_distance_scratch(a, b, k, &model, &mut reference_scratch);
                    for &level in &levels {
                        assert_eq!(
                            within_distance_dense(a, b, k, &matrix, n_syms, &mut scratch, level),
                            want,
                            "|a|={} |b|={} k={k} level={level}",
                            a.len(),
                            b.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let matrix = [0.0f64; 4];
        let mut s = DpScratch::new();
        for level in available_simd_levels() {
            assert!(within_distance_dense(
                &[],
                &[],
                0.0,
                &matrix,
                2,
                &mut s,
                level
            ));
            assert!(within_distance_dense(
                &[0, 1],
                &[],
                2.0,
                &matrix,
                2,
                &mut s,
                level
            ));
            assert!(!within_distance_dense(
                &[0, 1, 0],
                &[],
                2.0,
                &matrix,
                2,
                &mut s,
                level
            ));
            assert!(!within_distance_dense(
                &[0],
                &[1],
                -0.5,
                &matrix,
                2,
                &mut s,
                level
            ));
        }
    }

    #[test]
    #[should_panic(expected = "out of matrix range")]
    fn out_of_range_symbol_panics() {
        let matrix = [0.0f64; 4];
        let mut s = DpScratch::new();
        within_distance_dense(&[5], &[0], 1.0, &matrix, 2, &mut s, SimdLevel::Scalar);
    }

    #[test]
    fn force_scalar_env_is_detected() {
        // `detect_simd_level` re-reads the environment (the cached
        // `simd_level` must not, so dispatch stays fixed per process).
        let key = "LEXEQUAL_FORCE_SCALAR";
        let saved = std::env::var_os(key);
        std::env::set_var(key, "1");
        assert_eq!(detect_simd_level(), SimdLevel::Scalar);
        std::env::set_var(key, "0");
        let unforced = detect_simd_level();
        assert!(available_simd_levels().contains(&unforced));
        match saved {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
}
