//! Property tests over the whole phoneme crate surface.

use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases, Rng};
use lexequal_phoneme::{ClusterTable, Inventory, Phoneme, PhonemeString};

fn any_phoneme(rng: &mut Rng) -> Phoneme {
    Phoneme::from_id(rng.below(Inventory::len()) as u8).expect("in range")
}

fn any_string(rng: &mut Rng) -> PhonemeString {
    rng.phonemes(0..=23)
}

/// /ts/ against the empty string: the case a past run of these properties
/// once shrank to, kept as a fixed input.
fn ts_and_empty() -> (PhonemeString, PhonemeString) {
    ("ts".parse().expect("parses"), PhonemeString::empty())
}

/// Display → parse is the identity on every representable string — the
/// contract the database storage layer (pname TEXT columns) depends on.
#[test]
fn display_parse_round_trip() {
    for_cases(0x0e01, 512, |rng| {
        let s = any_string(rng);
        let back: PhonemeString = s.to_string().parse().expect("canonical output must parse");
        ensure_eq(back, s)
    });
}

/// Parsing is longest-match deterministic: re-rendering the parse gives
/// the same text back.
#[test]
fn render_is_stable() {
    for_cases(0x0e02, 512, |rng| {
        let once = any_string(rng).to_string();
        let twice = once.parse::<PhonemeString>().expect("parses").to_string();
        ensure_eq(once, twice)
    });
}

fn concat_behaves_on(a: &PhonemeString, b: &PhonemeString) -> Result<(), String> {
    let ab = a.concat(b);
    ensure_eq(ab.len(), a.len() + b.len())?;
    let back: PhonemeString = ab.to_string().parse().expect("parses");
    ensure_eq(back, ab)
}

/// Concatenation respects length and parses cleanly.
#[test]
fn concat_behaves() {
    let (ts, empty) = ts_and_empty();
    concat_behaves_on(&ts, &empty).unwrap();
    for_cases(0x0e03, 512, |rng| {
        concat_behaves_on(&any_string(rng), &any_string(rng))
    });
}

fn keys_agree_on(a: &PhonemeString, b: &PhonemeString) -> Result<(), String> {
    let t = ClusterTable::standard();
    if a.len() <= t.packed_prefix_len() && b.len() <= t.packed_prefix_len() {
        let keys_equal = t.cluster_key(a) == t.cluster_key(b);
        let packed_equal = t.packed_key(a) == t.packed_key(b);
        ensure(keys_equal == packed_equal, || {
            format!("a=/{a}/ b=/{b}/: cluster keys equal {keys_equal}, packed {packed_equal}")
        })?;
    }
    Ok(())
}

/// Cluster tables are total and consistent between the two lookup forms,
/// and packed keys agree with cluster keys on short strings.
#[test]
fn cluster_key_and_packed_key_agree() {
    let (ts, empty) = ts_and_empty();
    keys_agree_on(&ts, &empty).unwrap();
    for_cases(0x0e04, 512, |rng| {
        keys_agree_on(&any_string(rng), &any_string(rng))
    });
}

/// same_cluster is an equivalence relation (reflexive, symmetric;
/// transitivity follows from it being id-equality but check anyway).
#[test]
fn same_cluster_is_equivalence() {
    let t = ClusterTable::standard();
    for_cases(0x0e05, 512, |rng| {
        let (a, b, c) = (any_phoneme(rng), any_phoneme(rng), any_phoneme(rng));
        ensure(t.same_cluster(a, a), || {
            format!("{a:?} not in its own cluster")
        })?;
        ensure_eq(t.same_cluster(a, b), t.same_cluster(b, a))?;
        if t.same_cluster(a, b) && t.same_cluster(b, c) {
            ensure(t.same_cluster(a, c), || {
                format!("{a:?} ~ {b:?} ~ {c:?} not transitive")
            })?;
        }
        Ok(())
    });
}
