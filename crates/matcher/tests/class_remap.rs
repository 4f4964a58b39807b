//! A pattern over class ids whose mask table is remapped to the symbol
//! alphabet measures, over a string of symbols, exactly the Levenshtein
//! distance between the two class strings: `lev(class(q), class(t))`
//! computed without ever materialising `class(t)`. This is what lets the
//! verification kernel and the access paths run the cluster screen over a
//! row's phoneme ids.
//!
//! Held here to the plain unit-cost DP over the class-mapped strings, on
//! seeded phoneme strings, under four class maps (the standard, coarse and
//! identity cluster tables, and one class for everything): the scalar
//! `distance`, `distance_batch` at every lane count under every SIMD level,
//! and both arms of `Probe` — keys of 0, 1, 64, 65 and 130 symbols, the
//! first and last two past what a pattern holds.

use lexequal_matcher::{
    available_simd_levels, edit_distance, MyersPattern, Probe, UnitCost, MAX_LANES,
};
use lexequal_phoneme::testkit::Rng;
use lexequal_phoneme::{ClusterTable, PhonemeString};

fn class_maps() -> [(&'static str, [u8; 256]); 4] {
    [
        ("standard", ClusterTable::standard().class_map()),
        ("coarse", ClusterTable::coarse().class_map()),
        ("identity", ClusterTable::identity().class_map()),
        ("single class", [0; 256]),
    ]
}

fn mapped(ids: &[u8], class: &[u8; 256]) -> Vec<u8> {
    ids.iter().map(|&s| class[s as usize]).collect()
}

/// The oracle: the DP over both strings' class strings.
fn reference(key: &[u8], text: &[u8], class: &[u8; 256]) -> usize {
    edit_distance(key, &mapped(text, class), UnitCost) as usize
}

fn ids(s: &PhonemeString) -> Vec<u8> {
    s.id_bytes().to_vec()
}

/// A key of class ids (the query's class string) and its remapped pattern.
fn remapped(query: &[u8], class: &[u8; 256]) -> (Vec<u8>, Option<MyersPattern>) {
    let key = mapped(query, class);
    let pattern = MyersPattern::build(key.iter().copied()).map(|mut p| {
        p.remap(class);
        p
    });
    (key, pattern)
}

#[test]
fn a_remapped_pattern_measures_the_class_strings() {
    let mut rng = Rng::new(0xc1a5_5e01);
    for (name, class) in class_maps() {
        let texts: Vec<Vec<u8>> = (0..48).map(|_| ids(&rng.phonemes(0..=80))).collect();
        for _ in 0..12 {
            let query = ids(&rng.phonemes(1..=64));
            let (key, pattern) = remapped(&query, &class);
            let pattern = pattern.expect("1..=64 symbols fit a pattern");
            let want: Vec<usize> = texts.iter().map(|t| reference(&key, t, &class)).collect();
            for (text, &want) in texts.iter().zip(&want) {
                assert_eq!(
                    pattern.distance(text.iter().copied()),
                    want,
                    "{name}: |q|={} |t|={}",
                    query.len(),
                    text.len()
                );
            }
            for level in available_simd_levels() {
                for width in 1..=MAX_LANES {
                    for (at, chunk) in texts.chunks(width).enumerate() {
                        let lanes: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
                        let mut out = [usize::MAX; MAX_LANES];
                        pattern.distance_batch(&lanes, &mut out, level);
                        assert_eq!(
                            out[..lanes.len()],
                            want[at * width..at * width + lanes.len()],
                            "{name}: level={level} width={width}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn both_probe_arms_measure_the_class_strings() {
    let mut rng = Rng::new(0xc1a5_5e02);
    for (name, class) in class_maps() {
        let mut texts: Vec<Vec<u8>> = (0..24).map(|_| ids(&rng.phonemes(0..=140))).collect();
        for len in [0, 1, 64, 65, 130] {
            let query = ids(&rng.phonemes(len..=len));
            // The query itself and a near neighbour are among the texts.
            texts.push(query.clone());
            let mut near = query.clone();
            near.insert(near.len() / 2, query.first().copied().unwrap_or(0));
            texts.push(near);
            let (key, pattern) = remapped(&query, &class);
            assert_eq!(pattern.is_some(), (1..=64).contains(&len), "{name}: {len}");
            let probe = Probe::classed(&key, pattern.as_ref(), &class);
            match (&probe, len) {
                (Probe::Myers(_), 1..=64) | (Probe::Dp(..), 0 | 65..) => {}
                _ => panic!("{name}: a {len}-symbol key took the wrong arm"),
            }
            for text in &texts {
                assert_eq!(
                    probe.distance(text) as usize,
                    reference(&key, text, &class),
                    "{name}: |key|={len} |t|={}",
                    text.len()
                );
            }
        }
    }
}

/// A remapped pattern rebuilt over a new key reads texts as they are
/// again, exactly as a fresh build of that key does.
#[test]
fn a_rebuild_clears_a_remapped_table() {
    let mut rng = Rng::new(0xc1a5_5e03);
    let class = ClusterTable::coarse().class_map();
    let (_, pattern) = remapped(&ids(&rng.phonemes(8..=8)), &class);
    let mut pattern = pattern.unwrap();
    for _ in 0..16 {
        let key = ids(&rng.phonemes(1..=64));
        let text = ids(&rng.phonemes(0..=70));
        assert!(pattern.rebuild(&key));
        let fresh = MyersPattern::build(key.iter().copied()).unwrap();
        assert_eq!(
            pattern.distance(text.iter().copied()),
            fresh.distance(text.iter().copied())
        );
        assert_eq!(
            pattern.distance(text.iter().copied()),
            edit_distance(&key, &text, UnitCost) as usize
        );
        pattern.remap(&class);
    }
}
