//! The tagged multiscript evaluation corpus (paper §4.1).
//!
//! Every English base name is rendered into Devanagari and Tamil via the
//! phoneme-level transliterators (replacing the paper's hand conversion),
//! and all three renderings share a **tag number**: "any match of two
//! multilingual strings is considered to be correct if their tag-numbers
//! are the same, and considered to be a false-positive otherwise."

use crate::data::{all_names, NameDomain};
use lexequal::{LexEqual, MatchConfig};
use lexequal_g2p::translit::{to_devanagari, to_tamil};
use lexequal_g2p::Language;
use lexequal_phoneme::PhonemeString;

/// One corpus entry: a name in one script, with its phonemic rendering
/// and ground-truth tag.
#[derive(Debug, Clone)]
pub struct LexiconEntry {
    /// The lexicographic string.
    pub text: String,
    /// Language tag of the rendering.
    pub language: Language,
    /// Phonemic representation (as each language's G2P reads the text —
    /// *not* necessarily identical across renderings of one name).
    pub phonemes: PhonemeString,
    /// Ground-truth equivalence-group id.
    pub tag: u32,
    /// Which name domain the base name came from.
    pub domain: NameDomain,
}

/// The tagged corpus: ~800 groups × 3 scripts ≈ 2400 entries.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All entries, grouped entries adjacent, tags ascending.
    pub entries: Vec<LexiconEntry>,
    /// Number of tag groups.
    pub groups: u32,
}

impl Corpus {
    /// Build the full corpus with the given operator configuration.
    ///
    /// Each base name yields its English entry plus Devanagari and Tamil
    /// renderings (derived from the *English* phonemes, then re-read with
    /// the respective language's G2P — reproducing the phoneme-set
    /// mismatches of the paper's hand-converted data).
    pub fn build(config: &MatchConfig) -> Self {
        Self::build_prefix(config, usize::MAX)
    }

    /// [`build`](Self::build) stopped after the first `base_names` base
    /// names that yield entries: exactly the first `3 · base_names`
    /// entries of the full corpus, tags included, without transforming
    /// the rest.
    pub fn build_prefix(config: &MatchConfig, base_names: usize) -> Self {
        Self::build_with(&LexEqual::new(config.clone()), base_names)
    }

    /// [`build_prefix`](Self::build_prefix) with an operator built
    /// elsewhere (a store's own, say) doing the transforms.
    pub fn build_with(operator: &LexEqual, base_names: usize) -> Self {
        let mut entries = Vec::new();
        let mut next_tag = 0u32;
        // The paper tagged "all phonetically equivalent names … with a
        // common tag-number": base names whose English phoneme strings are
        // identical (Kelly/Kelley, Smith/Smyth) share one group.
        let mut tag_by_phonemes: std::collections::HashMap<String, u32> =
            std::collections::HashMap::new();
        for (name, domain) in all_names() {
            if entries.len() / 3 >= base_names {
                break;
            }
            let Ok(en) = operator.transform(name, Language::English) else {
                continue; // defensive: every base name converts in practice
            };
            if en.is_empty() {
                continue;
            }
            let deva = to_devanagari(&en);
            let tamil = to_tamil(&en);
            let (Ok(hi), Ok(ta)) = (
                operator.transform(&deva, Language::Hindi),
                operator.transform(&tamil, Language::Tamil),
            ) else {
                continue;
            };
            let tag = *tag_by_phonemes.entry(en.to_string()).or_insert_with(|| {
                let t = next_tag;
                next_tag += 1;
                t
            });
            entries.push(LexiconEntry {
                text: name.to_owned(),
                language: Language::English,
                phonemes: en,
                tag,
                domain,
            });
            entries.push(LexiconEntry {
                text: deva,
                language: Language::Hindi,
                phonemes: hi,
                tag,
                domain,
            });
            entries.push(LexiconEntry {
                text: tamil,
                language: Language::Tamil,
                phonemes: ta,
                tag,
                domain,
            });
        }
        Corpus {
            entries,
            groups: next_tag,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Average lexicographic length in characters (paper: 7.35).
    pub fn avg_lex_len(&self) -> f64 {
        let total: usize = self.entries.iter().map(|e| e.text.chars().count()).sum();
        total as f64 / self.len() as f64
    }

    /// Average phonemic length in segments (paper: 7.16).
    pub fn avg_phon_len(&self) -> f64 {
        let total: usize = self.entries.iter().map(|e| e.phonemes.len()).sum();
        total as f64 / self.len() as f64
    }

    /// Length histogram: `(length, lex_count, phon_count)` for Figure 10.
    pub fn length_distribution(&self) -> Vec<(usize, usize, usize)> {
        let max = self
            .entries
            .iter()
            .map(|e| e.text.chars().count().max(e.phonemes.len()))
            .max()
            .unwrap_or(0);
        let mut out = vec![(0usize, 0usize, 0usize); max + 1];
        for (i, slot) in out.iter_mut().enumerate() {
            slot.0 = i;
        }
        for e in &self.entries {
            out[e.text.chars().count()].1 += 1;
            out[e.phonemes.len()].2 += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::build(&MatchConfig::default())
    }

    #[test]
    fn corpus_has_three_renderings_per_group() {
        let c = corpus();
        // Every base name contributes one entry per script; homophone
        // base names (Kelly/Kelley) merge into one group, so groups may
        // be slightly fewer than len/3.
        assert_eq!(c.len() % 3, 0);
        assert!(c.groups as usize <= c.len() / 3);
        assert!(c.groups >= 700, "expected ~800 groups, got {}", c.groups);
        // Each consecutive triple shares a tag and spans 3 languages.
        for chunk in c.entries.chunks(3) {
            assert_eq!(chunk[0].tag, chunk[1].tag);
            assert_eq!(chunk[0].tag, chunk[2].tag);
            assert_eq!(chunk[0].language, Language::English);
            assert_eq!(chunk[1].language, Language::Hindi);
            assert_eq!(chunk[2].language, Language::Tamil);
        }
    }

    #[test]
    fn a_prefix_is_the_head_of_the_full_corpus() {
        let full = corpus();
        for base_names in [0, 1, 83, usize::MAX] {
            let prefix = Corpus::build_prefix(&MatchConfig::default(), base_names);
            assert_eq!(prefix.len(), full.len().min(base_names.saturating_mul(3)));
            for (p, f) in prefix.entries.iter().zip(&full.entries) {
                assert_eq!(
                    (&p.text, p.language, &p.phonemes, p.tag, p.domain),
                    (&f.text, f.language, &f.phonemes, f.tag, f.domain)
                );
            }
        }
    }

    #[test]
    fn average_lengths_match_papers_ballpark() {
        let c = corpus();
        let lex = c.avg_lex_len();
        let phon = c.avg_phon_len();
        // Paper: 7.35 lexicographic / 7.16 phonemic. Our renderings and
        // scripts differ slightly; requiring the same ballpark.
        assert!((5.0..=9.5).contains(&lex), "avg lex len {lex}");
        assert!((5.0..=9.5).contains(&phon), "avg phon len {phon}");
    }

    #[test]
    fn renderings_are_in_their_scripts() {
        let c = corpus();
        for e in &c.entries {
            match e.language {
                Language::English => {
                    assert!(e.text.chars().all(|ch| ch.is_ascii_alphabetic()))
                }
                Language::Hindi => assert!(e
                    .text
                    .chars()
                    .all(|ch| ('\u{0900}'..='\u{097F}').contains(&ch))),
                Language::Tamil => assert!(e
                    .text
                    .chars()
                    .all(|ch| ('\u{0B80}'..='\u{0BFF}').contains(&ch))),
                other => panic!("unexpected language {other}"),
            }
        }
    }

    #[test]
    fn tag_groups_are_phonetically_close_but_not_identical() {
        // The corpus must carry genuine cross-script noise: within-group
        // phoneme strings should often differ, else the experiments are
        // trivial.
        let c = corpus();
        let mut identical_groups = 0usize;
        for chunk in c.entries.chunks(3) {
            if chunk[0].phonemes == chunk[1].phonemes && chunk[1].phonemes == chunk[2].phonemes {
                identical_groups += 1;
            }
        }
        let frac = identical_groups as f64 / c.groups as f64;
        assert!(
            frac < 0.5,
            "too many groups with identical phonemes ({frac:.2}) — no fuzziness left"
        );
    }

    #[test]
    fn length_distribution_sums_to_corpus_size() {
        let c = corpus();
        let dist = c.length_distribution();
        let lex_total: usize = dist.iter().map(|d| d.1).sum();
        let phon_total: usize = dist.iter().map(|d| d.2).sum();
        assert_eq!(lex_total, c.len());
        assert_eq!(phon_total, c.len());
    }
}
