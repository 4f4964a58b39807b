//! Seeded property testing for the workspace's own tests.
//!
//! The build is offline, so the properties the index plans rest on — the
//! metric axioms, filter soundness, converter totality — run on this
//! module instead of an external property-testing crate. A property is a
//! closure over an [`Rng`]; [`for_cases`] runs it on a fixed number of
//! deterministic cases, and on the first failure retries that case's seed
//! with every generated length capped at ½, ¼, … of its maximum, so the
//! report names the case seed and the smallest cap that still fails.
//!
//! It lives in the lowest crate so every other crate can reach it as a
//! (dev-)dependency; it reads no environment variable and has no feature.

use crate::{Inventory, Phoneme, PhonemeString};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

const PCG_MUL: u64 = 6_364_136_223_846_793_005;
const PCG_INC: u64 = 1_442_695_040_888_963_407;

/// A seeded PCG (XSH-RR, 64-bit state) generator. Every length it draws
/// passes through one place, where [`for_cases`] caps it.
#[derive(Debug)]
pub struct Rng {
    state: u64,
    /// Each length's maximum is shifted right by this much (0: no cap).
    cap_shift: u32,
    /// The largest length maximum asked for so far, uncapped.
    widest: usize,
}

impl Rng {
    /// A generator for `seed`; the same seed gives the same sequence on
    /// every host.
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng {
            state: 0,
            cap_shift: 0,
            widest: 0,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MUL).wrapping_add(PCG_INC);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        xorshifted.rotate_right((old >> 59) as u32)
    }

    fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no value to return");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `range` (half-open).
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + (range.end - range.start) * unit
    }

    /// One of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// A length in `lens`, its maximum lowered by the current cap (never
    /// below the minimum).
    fn length(&mut self, lens: RangeInclusive<usize>) -> usize {
        let (min, max) = lens.into_inner();
        self.widest = self.widest.max(max);
        let max = max.checked_shr(self.cap_shift).unwrap_or(0).max(min);
        min + self.below(max - min + 1)
    }

    /// `f` drawn a number of times in `lens`.
    pub fn vec<T>(
        &mut self,
        lens: RangeInclusive<usize>,
        mut f: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let n = self.length(lens);
        (0..n).map(|_| f(self)).collect()
    }

    /// A string over `class`, written the way a regex class is: single
    /// characters and `a-z` ranges (a `-` first or last is itself).
    pub fn string(&mut self, class: &str, lens: RangeInclusive<usize>) -> String {
        let chars = expand_class(class);
        self.vec(lens, |rng| *rng.pick(&chars))
            .into_iter()
            .collect()
    }

    /// A string of code points drawn from `block`; a draw that is no
    /// `char` (a surrogate) is dropped, so the string may come out
    /// shorter than the length drawn.
    pub fn code_points(
        &mut self,
        block: RangeInclusive<u32>,
        lens: RangeInclusive<usize>,
    ) -> String {
        let (lo, hi) = block.into_inner();
        let draws = self.vec(lens, |rng| lo + rng.below((hi - lo) as usize + 1) as u32);
        draws.into_iter().filter_map(char::from_u32).collect()
    }

    /// Any `char` that is not a control character: half the draws from
    /// the Basic Multilingual Plane, where every script the converters
    /// read lives, half from all of Unicode.
    pub fn any_char(&mut self) -> char {
        loop {
            let top = if self.below(2) == 0 {
                0x1_0000
            } else {
                0x11_0000
            };
            match char::from_u32(self.below(top) as u32) {
                Some(c) if !c.is_control() => return c,
                _ => {}
            }
        }
    }

    /// A phoneme string of a length in `lens`, each phoneme uniform over
    /// the inventory.
    pub fn phonemes(&mut self, lens: RangeInclusive<usize>) -> PhonemeString {
        let n = Inventory::len();
        PhonemeString::new(self.vec(lens, |rng| {
            Phoneme::from_id(rng.below(n) as u8).expect("ids below the inventory size are valid")
        }))
    }
}

fn expand_class(class: &str) -> Vec<char> {
    let spec: Vec<char> = class.chars().collect();
    let mut chars = Vec::new();
    let mut i = 0;
    while i < spec.len() {
        if i + 2 < spec.len() && spec[i + 1] == '-' {
            chars.extend(spec[i]..=spec[i + 2]);
            i += 3;
        } else {
            chars.push(spec[i]);
            i += 1;
        }
    }
    assert!(!chars.is_empty(), "empty character class {class:?}");
    chars
}

/// `Ok` if `holds`, else `Err(why())`.
pub fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// `Ok` if `left == right`, else an `Err` showing both.
pub fn ensure_eq<T: PartialEq + Debug>(left: T, right: T) -> Result<(), String> {
    ensure(left == right, || format!("{left:?} != {right:?}"))
}

/// Run `prop` on `cases` deterministic cases derived from `seed`. A case
/// fails when `prop` returns `Err` or panics. On the first failure the
/// case's seed is run again with every length capped at ½, ¼, … of its
/// maximum, down to every length at its minimum, and this panics naming
/// the case, its seed and the smallest cap that still failed, with that
/// run's message.
pub fn for_cases(seed: u64, cases: u32, mut prop: impl FnMut(&mut Rng) -> Result<(), String>) {
    for case in 0..cases {
        let case_seed = seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = Rng::new(case_seed);
        let Err(mut why) = run(&mut prop, &mut rng) else {
            continue;
        };
        let mut cap = "none (fails only uncapped)".to_owned();
        for shift in 1..=usize::BITS - rng.widest.leading_zeros() {
            let mut capped = Rng {
                cap_shift: shift,
                ..Rng::new(case_seed)
            };
            if let Err(capped_why) = run(&mut prop, &mut capped) {
                cap = format!("1/{}", 1u128 << shift);
                why = capped_why;
            }
        }
        panic!(
            "property failed on case {case} of {cases} (case seed {case_seed:#x}); \
             smallest failing length cap {cap}: {why}"
        );
    }
}

fn run(prop: &mut impl FnMut(&mut Rng) -> Result<(), String>, rng: &mut Rng) -> Result<(), String> {
    panic::catch_unwind(AssertUnwindSafe(|| prop(rng))).unwrap_or_else(|payload| {
        let message = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned());
        Err(format!("panicked: {}", message.unwrap_or_default()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every ported property draws its inputs from this sequence: a change
    /// to the generator changes all of them, so it has to show up here.
    #[test]
    fn first_outputs_for_a_fixed_seed_are_pinned() {
        let mut rng = Rng::new(42);
        let firsts: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            firsts,
            [
                14_048_270_773_501_019_305,
                8_266_272_020_994_544_515,
                17_703_472_759_096_391_218,
                14_683_759_178_702_374_871
            ]
        );
        let mut rng = Rng::new(42);
        assert_eq!(rng.string("a-d", 0..=12), "bddbcadca");
        assert_eq!(rng.phonemes(3..=3).id_bytes(), [53, 38, 14]);
    }

    #[test]
    fn draws_stay_in_their_ranges() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert!(rng.below(3) < 3);
            assert!((2..=5).contains(&rng.length(2..=5)));
            assert!((0.5..0.75).contains(&rng.f64_in(0.5..0.75)));
            assert!(rng
                .string("A-Za-z' -", 0..=4)
                .chars()
                .all(|c| { c.is_ascii_alphabetic() || "' -".contains(c) }));
            assert!(rng
                .code_points(0x0900..=0x097F, 0..=4)
                .chars()
                .all(|c| { ('\u{0900}'..='\u{097F}').contains(&c) }));
            assert!(!rng.any_char().is_control());
        }
    }

    /// A property that fails once any drawn length reaches 3 fails on its
    /// first case, still fails with maxima cut to 1/16 (64 → 4) and never
    /// at 1/32 (64 → 2).
    #[test]
    fn a_planted_failure_names_its_case_seed_and_smallest_failing_cap() {
        let failure = panic::catch_unwind(|| {
            for_cases(0x5eed, 100, |rng| {
                let longest = (0..50).map(|_| rng.length(0..=64)).max().unwrap_or(0);
                ensure(longest < 3, || format!("drew a length of {longest}"))
            })
        })
        .expect_err("the planted property fails");
        let message = failure.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            message.starts_with(
                "property failed on case 0 of 100 (case seed 0x5eed); \
                 smallest failing length cap 1/16: drew a length of"
            ),
            "{message}"
        );
    }

    #[test]
    fn a_panicking_property_is_a_failure_too() {
        let failure = panic::catch_unwind(|| {
            for_cases(1, 10, |rng| {
                let s = rng.string("ab", 0..=8);
                assert!(!s.contains('b'), "saw a b in {s:?}");
                Ok(())
            })
        })
        .expect_err("the planted property fails");
        let message = failure.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("panicked: saw a b in"), "{message}");
    }
}
