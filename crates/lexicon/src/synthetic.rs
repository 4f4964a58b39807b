//! The synthetic performance dataset (paper §5).
//!
//! "Since the real multiscript lexicon … was not large enough for
//! performance experiments, we synthetically generated a large dataset …
//! Specifically, we concatenated each string with all remaining strings
//! *within a given language*. The generated set contained about 200,000
//! names, with an average lexicographic length of 14.71 and average
//! phonemic length of 14.31."
//!
//! With ~800 base names per language the full pairwise concatenation
//! would exceed 600K entries *per language*; the paper's 200K total
//! implies a subset of roughly 260 base names per language. The generator
//! takes a target size and picks the base-name prefix per language that
//! meets it.

use crate::corpus::{Corpus, LexiconEntry};
use lexequal::store::NameEntry;
use lexequal::MatchConfig;
use lexequal_g2p::Language;
use lexequal_phoneme::PhonemeString;

/// One generated entry: concatenated text, language, phonemes.
#[derive(Debug, Clone)]
pub struct SyntheticEntry {
    /// Concatenated lexicographic string.
    pub text: String,
    /// Language (same as both sources).
    pub language: Language,
    /// Concatenated phoneme string.
    pub phonemes: PhonemeString,
}

/// The ≈`target` synthetic names as store entries, transforming only the
/// base names [`SyntheticPairs`] pairs — entry for entry what generating
/// from the whole corpus yields.
pub fn build_dataset(config: &MatchConfig, target: usize) -> Vec<NameEntry> {
    let corpus = Corpus::build_prefix(config, SyntheticDataset::base_names(target));
    let pairs = SyntheticPairs::of(&corpus, target);
    let entries = pairs.entries().map(|e| NameEntry {
        text: e.text,
        language: e.language,
        phonemes: e.phonemes,
    });
    entries.collect()
}

/// The synthetic set before any name is made: the ordered pairs `(a, b)`
/// of distinct base names within a language whose concatenations
/// `a.text ‖ b.text`, `a.phonemes ‖ b.phonemes` are its entries, in id
/// order — the one place that order is decided. A store loader pushes the
/// parts as they are; [`SyntheticDataset::generate`] and [`build_dataset`]
/// concatenate them.
#[derive(Debug, Clone)]
pub struct SyntheticPairs<'a> {
    /// Per language, the base names paired.
    base: [Vec<&'a LexiconEntry>; 3],
}

impl<'a> SyntheticPairs<'a> {
    /// The pairs reaching ≈`target` entries, balanced across the three
    /// languages: the first [`base_names(target)`](SyntheticDataset::base_names)
    /// entries of each in `corpus` — or all of them, where the target asks
    /// for more than the corpus has.
    pub fn of(corpus: &'a Corpus, target: usize) -> Self {
        let n = SyntheticDataset::base_names(target);
        let base = [Language::English, Language::Hindi, Language::Tamil].map(|language| {
            let of_language = corpus.entries.iter().filter(|e| e.language == language);
            of_language.take(n).collect()
        });
        SyntheticPairs { base }
    }

    /// Number of pairs: `n · (n − 1)` a language.
    pub fn len(&self) -> usize {
        self.base
            .iter()
            .map(|b| b.len() * b.len().saturating_sub(1))
            .sum()
    }

    /// Whether there is no pair.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries themselves: each pair concatenated, in id order.
    pub fn entries(&self) -> impl Iterator<Item = SyntheticEntry> + '_ {
        self.iter().map(|(a, b)| SyntheticEntry {
            text: format!("{}{}", a.text, b.text),
            language: a.language,
            phonemes: a.phonemes.concat(&b.phonemes),
        })
    }

    /// The pairs in id order: by language, then first name, then second.
    pub fn iter(&self) -> impl Iterator<Item = (&'a LexiconEntry, &'a LexiconEntry)> + '_ {
        self.base.iter().flat_map(|base| {
            let others = base.len().saturating_sub(1);
            (0..base.len() * others).map(move |at| {
                let (i, j) = (at / others, at % others);
                (base[i], base[j + usize::from(j >= i)])
            })
        })
    }
}

/// The generated dataset.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// All entries.
    pub entries: Vec<SyntheticEntry>,
}

impl SyntheticDataset {
    /// Generate ≈`target` entries from the corpus by in-language pairwise
    /// concatenation, balanced across the three languages.
    pub fn generate(corpus: &Corpus, target: usize) -> Self {
        let pairs = SyntheticPairs::of(corpus, target);
        let mut entries = Vec::with_capacity(pairs.len());
        entries.extend(pairs.entries());
        SyntheticDataset { entries }
    }

    /// How many base names per language [`SyntheticPairs`] pairs to reach
    /// `target`: it reads no more of the corpus than its first
    /// `3 · base_names(target)` entries.
    pub fn base_names(target: usize) -> usize {
        let per_language = target / 3;
        // n(n-1) >= per_language  =>  n ≈ ceil((1+sqrt(1+4p))/2)
        ((1.0 + (1.0 + 4.0 * per_language as f64).sqrt()) / 2.0).ceil() as usize
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Average lexicographic length in characters (paper: 14.71).
    pub fn avg_lex_len(&self) -> f64 {
        let total: usize = self.entries.iter().map(|e| e.text.chars().count()).sum();
        total as f64 / self.len() as f64
    }

    /// Average phonemic length in segments (paper: 14.31).
    pub fn avg_phon_len(&self) -> f64 {
        let total: usize = self.entries.iter().map(|e| e.phonemes.len()).sum();
        total as f64 / self.len() as f64
    }

    /// Length histogram `(length, lex_count, phon_count)` for Figure 13.
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
    use std::sync::OnceLock;

    fn corpus() -> &'static Corpus {
        static C: OnceLock<Corpus> = OnceLock::new();
        C.get_or_init(|| Corpus::build(&MatchConfig::default()))
    }

    /// The daemon's `--preload` ids must line up with a corpus built the
    /// long way (lexbench's oracle is): same entries, same order.
    #[test]
    fn build_dataset_equals_the_full_corpus_path() {
        let config = MatchConfig::default();
        for target in [100, 2_000, 20_000, 200_000] {
            let want = SyntheticDataset::generate(corpus(), target).entries;
            let got = build_dataset(&config, target);
            assert_eq!(got.len(), want.len(), "target {target}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (&g.text, g.language, &g.phonemes),
                    (&w.text, w.language, &w.phonemes),
                    "target {target}"
                );
            }
        }
    }

    /// The id order exists once, in [`SyntheticPairs`]; this is the loop
    /// `generate` was before it did, kept here to hold the enumerator to.
    #[test]
    fn pairs_are_the_nested_loop_entry_for_entry() {
        for target in [100, 2_000, 20_000, 200_000] {
            let n = SyntheticDataset::base_names(target);
            let mut want = Vec::new();
            for language in [Language::English, Language::Hindi, Language::Tamil] {
                let base: Vec<&LexiconEntry> = corpus()
                    .entries
                    .iter()
                    .filter(|e| e.language == language)
                    .take(n)
                    .collect();
                for (i, a) in base.iter().enumerate() {
                    for (j, b) in base.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        want.push((
                            format!("{}{}", a.text, b.text),
                            language,
                            a.phonemes.concat(&b.phonemes),
                        ));
                    }
                }
            }
            let pairs = SyntheticPairs::of(corpus(), target);
            assert_eq!(pairs.len(), want.len(), "target {target}");
            assert_eq!(pairs.iter().count(), want.len(), "target {target}");
            let generated = SyntheticDataset::generate(corpus(), target).entries;
            assert_eq!(generated.len(), want.len(), "target {target}");
            for (((a, b), e), w) in pairs.iter().zip(&generated).zip(&want) {
                let parts = (
                    format!("{}{}", a.text, b.text),
                    a.language,
                    a.phonemes.concat(&b.phonemes),
                );
                assert_eq!(&parts, w, "target {target}");
                assert_eq!((&e.text, e.language, &e.phonemes), (&w.0, w.1, &w.2));
            }
        }
    }

    /// A target past what the lexicon can pair is capped at its ceiling —
    /// `--preload 4000000000` used to size a vector from the target's
    /// 36 516 base names a language and abort on a 224 GB allocation.
    #[test]
    fn a_target_past_the_lexicon_is_sized_from_the_names_there_are() {
        let per_language = corpus().len() / 3;
        let ceiling = 3 * per_language * (per_language - 1);
        for target in [ceiling + 3, 3_000_000, 4_000_000_000] {
            assert!(SyntheticDataset::base_names(target) > per_language);
            assert_eq!(SyntheticPairs::of(corpus(), target).len(), ceiling);
        }
        assert_eq!(ceiling, 2_004_918);
        // Five base names a language: 3 · 5 · 4 entries, whatever is asked.
        let small = Corpus::build_prefix(&MatchConfig::default(), 5);
        let generated = SyntheticDataset::generate(&small, 4_000_000_000);
        assert_eq!(generated.len(), 60);
        assert!(generated.entries.capacity() < 1_000);
        assert!(SyntheticPairs::of(&small, 0).is_empty());
    }

    #[test]
    fn small_generation_has_exact_size() {
        // per-language p = 1000/3 = 333 -> n = 19 -> 19*18 = 342 per lang.
        let d = SyntheticDataset::generate(corpus(), 1000);
        assert_eq!(d.len(), 3 * 19 * 18);
    }

    #[test]
    fn entries_are_concatenations() {
        let d = SyntheticDataset::generate(corpus(), 100);
        for e in d.entries.iter().take(20) {
            assert!(e.text.chars().count() >= 4);
            assert!(e.phonemes.len() >= 4);
        }
    }

    #[test]
    fn paper_scale_generation_hits_200k_and_length_ballpark() {
        let d = SyntheticDataset::generate(corpus(), 200_000);
        assert!(
            (190_000..=215_000).contains(&d.len()),
            "got {} entries",
            d.len()
        );
        // Paper: avg lex 14.71, phon 14.31. Same ballpark expected.
        let lex = d.avg_lex_len();
        let phon = d.avg_phon_len();
        assert!((11.0..=19.0).contains(&lex), "avg lex {lex}");
        assert!((11.0..=19.0).contains(&phon), "avg phon {phon}");
    }

    #[test]
    fn balanced_across_languages() {
        let d = SyntheticDataset::generate(corpus(), 3000);
        for lang in [Language::English, Language::Hindi, Language::Tamil] {
            let n = d.entries.iter().filter(|e| e.language == lang).count();
            assert_eq!(n, d.len() / 3, "{lang}");
        }
    }
}
