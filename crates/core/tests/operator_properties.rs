//! Property tests on the LexEQUAL operator invariants.

use lexequal::{LexEqual, MatchConfig};
use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases, Rng};
use lexequal_phoneme::PhonemeString;

fn any_string(rng: &mut Rng) -> PhonemeString {
    rng.phonemes(0..=15)
}

/// The predicate is symmetric for any operands and threshold.
#[test]
fn predicate_symmetric() {
    let op = LexEqual::default();
    for_cases(0x0b01, 512, |rng| {
        let (a, b, e) = (any_string(rng), any_string(rng), rng.f64_in(0.0..1.0));
        ensure_eq(
            op.matches_phonemes(&a, &b, e),
            op.matches_phonemes(&b, &a, e),
        )
    });
}

/// Monotone in the threshold: once matched, always matched at looser e.
#[test]
fn predicate_monotone() {
    let op = LexEqual::default();
    for_cases(0x0b02, 256, |rng| {
        let (a, b) = (any_string(rng), any_string(rng));
        let mut matched = false;
        for e in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0] {
            let m = op.matches_phonemes(&a, &b, e);
            ensure(!matched || m, || {
                format!("/{a}/ ~ /{b}/ lost when e grew to {e}")
            })?;
            matched = m;
        }
        Ok(())
    });
}

/// Reflexive at every threshold.
#[test]
fn predicate_reflexive() {
    let op = LexEqual::default();
    for_cases(0x0b03, 512, |rng| {
        let (a, e) = (any_string(rng), rng.f64_in(0.0..1.0));
        ensure(op.matches_phonemes(&a, &a, e), || format!("/{a}/ at e={e}"))
    });
}

/// The predicate agrees with the strict-distance definition.
#[test]
fn predicate_agrees_with_distance() {
    let op = LexEqual::default();
    for_cases(0x0b04, 512, |rng| {
        let (a, b, e) = (any_string(rng), any_string(rng), rng.f64_in(0.0..1.0));
        let d = op.distance(&a, &b);
        let k = op.budget(&a, &b, e);
        let expected = a == b || d <= 1e-12 || d < k - 1e-9;
        ensure(op.matches_phonemes(&a, &b, e) == expected, || {
            format!("d={d} k={k} a=/{a}/ b=/{b}/ expected {expected}")
        })
    });
}

/// The clustered distance is a pseudo-metric: non-negative, symmetric,
/// triangle inequality.
#[test]
fn clustered_distance_is_pseudometric() {
    let op = LexEqual::new(MatchConfig::default().with_intra_cluster_cost(0.25));
    for_cases(0x0b05, 512, |rng| {
        let [a, b, c] = [(); 3].map(|()| any_string(rng));
        let (ab, bc, ac) = (
            op.distance(&a, &b),
            op.distance(&b, &c),
            op.distance(&a, &c),
        );
        ensure(ab >= 0.0, || format!("negative distance {ab}"))?;
        ensure_eq(ab, op.distance(&b, &a))?;
        ensure(ac <= ab + bc + 1e-9, || {
            format!("triangle violated: {ac} > {ab} + {bc} for /{a}/ /{b}/ /{c}/")
        })
    });
}

/// Distance is bounded by the longer length (all ops cost <= 1).
#[test]
fn distance_bounded() {
    let op = LexEqual::default();
    for_cases(0x0b06, 512, |rng| {
        let (a, b) = (any_string(rng), any_string(rng));
        let d = op.distance(&a, &b);
        ensure(
            d <= a.len().max(b.len()) as f64 + 1e-9
                && d >= (a.len() as f64 - b.len() as f64).abs() - 1e-9,
            || format!("d={d} for /{a}/ /{b}/"),
        )
    });
}
