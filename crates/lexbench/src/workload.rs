//! Seeded inputs: the corpus the daemon serves, the query pools, and the
//! per-connection request streams. Everything the daemon sees is a
//! request line rendered from here; the seed never reaches it.

use crate::rng::Rng;
use crate::spec::{Workload, ADD_PERCENT, THRESHOLD};
use lexequal::store::NameEntry;
use lexequal::{Language, LexEqual, MatchConfig, SearchMethod};
use lexequal_lexicon::{Corpus, SyntheticDataset};
use lexequal_service::metrics::method_name;

/// The three languages of the paper's §5 performance set.
pub const LANGS: [Language; 3] = [Language::English, Language::Hindi, Language::Tamil];

/// One query or name: text in its own script plus its language tag.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Text {
    /// The text as sent.
    pub text: String,
    /// Its language.
    pub language: Language,
}

/// ISO code used on the wire for a language tag.
pub fn lang_code(l: Language) -> &'static str {
    match l {
        Language::English => "en",
        Language::Hindi => "hi",
        Language::Tamil => "ta",
        Language::Greek => "el",
        Language::French => "fr",
        Language::Spanish => "es",
        Language::Arabic => "ar",
        Language::Japanese => "ja",
        Language::Russian => "ru",
        Language::Korean => "ko",
        Language::Thai => "th",
    }
}

/// The corpus every workload serves, built by the same
/// `lexequal_lexicon` calls the daemon's `--preload` makes, so entry `i`
/// here is global id `i` in the daemon.
pub struct BenchCorpus {
    /// Operator configuration (defaults: clustered costs, embed screen on).
    pub config: MatchConfig,
    /// The synthetic dataset, in id order.
    pub entries: Vec<NameEntry>,
    /// Base names per language (same order as [`LANGS`]) — raw material
    /// for queries and new names outside the dataset.
    pub base: [Vec<String>; 3],
    /// How many leading base names per language the dataset pairs up.
    pub paired: usize,
}

impl BenchCorpus {
    /// Build the ≈`target`-name corpus.
    pub fn build(target: usize) -> Self {
        let config = MatchConfig::default();
        let corpus = Corpus::build(&config);
        let entries: Vec<NameEntry> = SyntheticDataset::generate(&corpus, target)
            .entries
            .into_iter()
            .map(|e| NameEntry {
                text: e.text,
                language: e.language,
                phonemes: e.phonemes,
            })
            .collect();
        let base = LANGS.map(|l| {
            corpus
                .entries
                .iter()
                .filter(|e| e.language == l)
                .map(|e| e.text.clone())
                .collect::<Vec<_>>()
        });
        // n(n-1) names per language: recover n from the dataset size.
        let per_language = entries.len() / 3;
        let paired = (1..).find(|n| n * (n - 1) >= per_language).unwrap_or(2);
        BenchCorpus {
            config,
            entries,
            base,
            paired,
        }
    }

    /// `HOT_POOL`-style pool: `size` distinct dataset names, used as
    /// queries in their own script (non-empty, cross-script answers).
    pub fn hot_pool(&self, seed: u64, size: usize) -> Vec<Text> {
        let mut rng = Rng::new(seed, 0x407);
        let mut picked = std::collections::BTreeSet::new();
        let size = size.min(self.entries.len());
        while picked.len() < size {
            picked.insert(rng.below(self.entries.len()));
        }
        // The set iterates in id order (language by language); shuffle so
        // a pool index says nothing about the query.
        let mut ids: Vec<usize> = picked.into_iter().collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        ids.into_iter()
            .map(|i| Text {
                text: self.entries[i].text.clone(),
                language: self.entries[i].language,
            })
            .collect()
    }

    /// Cold pool: `size` distinct in-language name pairs (first name from
    /// the dataset's base prefix, second from the whole lexicon), each of
    /// which its own language's converter accepts.
    pub fn cold_pool(&self, seed: u64, size: usize) -> Vec<Text> {
        let op = LexEqual::new(self.config.clone());
        let mut rng = Rng::new(seed, 0xC01D);
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::with_capacity(size);
        let capacity: usize = self
            .base
            .iter()
            .map(|b| self.paired.min(b.len()) * b.len().saturating_sub(1))
            .sum();
        let size = size.min(capacity / 2);
        while out.len() < size {
            let li = rng.below(3);
            let names = &self.base[li];
            let a = rng.below(self.paired.min(names.len()));
            let b = rng.below(names.len());
            if a == b || !seen.insert((li, a, b)) {
                continue;
            }
            let text = format!("{}{}", names[a], names[b]);
            if op.transform(&text, LANGS[li]).is_ok() {
                out.push(Text {
                    text,
                    language: LANGS[li],
                });
            }
        }
        out
    }
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// `MATCH` for pool query `query`, language-tagged or not.
    Match {
        /// Index into the workload's pool.
        query: u32,
        /// `false` sends `MATCH - …` (server-side script routing).
        tagged: bool,
    },
    /// `ADD` of this connection's `name`-th new name.
    Add {
        /// Index into the stream's [`StreamGen::names`].
        name: u32,
    },
}

/// A connection's deterministic, endless request stream.
pub struct StreamGen<'a> {
    rng: Rng,
    name_rng: Rng,
    corpus: &'a BenchCorpus,
    pool: &'a [Text],
    method: SearchMethod,
    /// Percent of requests that are `ADD`s.
    add_percent: usize,
    /// Percent of `MATCH`es sent untagged.
    untagged_percent: usize,
    /// New names generated so far, in `Req::Add::name` order.
    pub names: Vec<Text>,
}

impl<'a> StreamGen<'a> {
    /// The stream of connection `conn` for `workload` under `seed`.
    pub fn new(
        corpus: &'a BenchCorpus,
        pool: &'a [Text],
        workload: &Workload,
        seed: u64,
        conn: usize,
    ) -> Self {
        let salt = workload.name.bytes().fold(conn as u64 + 1, |h, b| {
            h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b)
        });
        StreamGen {
            rng: Rng::new(seed, salt),
            name_rng: Rng::new(seed, salt ^ 0xADD),
            corpus,
            pool,
            method: workload.method,
            add_percent: if workload.name == "write_mix" {
                ADD_PERCENT
            } else {
                0
            },
            untagged_percent: if workload.name == "phonidx_cold" {
                50
            } else {
                0
            },
            names: Vec::new(),
        }
    }

    /// The next request of the workload's mix.
    pub fn next_req(&mut self) -> Req {
        if self.add_percent > 0 && self.rng.below(100) < self.add_percent {
            return self.next_add();
        }
        Req::Match {
            query: self.rng.below(self.pool.len()) as u32,
            tagged: self.untagged_percent == 0 || self.rng.below(100) >= self.untagged_percent,
        }
    }

    /// The next `ADD` (also used alone, by the traced run's write-path
    /// dissection):
    /// one time in four a copy of a pool query — so acknowledged writes
    /// show up in later `MATCH` answers — otherwise a name pair from
    /// outside the dataset.
    pub fn next_add(&mut self) -> Req {
        let text = if self.name_rng.below(4) == 0 {
            self.pool[self.name_rng.below(self.pool.len())].clone()
        } else {
            let li = self.name_rng.below(3);
            let names = &self.corpus.base[li];
            let a = self.name_rng.below(names.len());
            let b = self.name_rng.below(names.len());
            Text {
                text: format!("{}{}", names[a], names[b]),
                language: LANGS[li],
            }
        };
        self.names.push(text);
        Req::Add {
            name: self.names.len() as u32 - 1,
        }
    }

    /// The request line (no newline) for `req`.
    pub fn render(&self, req: Req) -> String {
        match req {
            Req::Match { query, tagged } => {
                let q = &self.pool[query as usize];
                format!(
                    "MATCH {} {} {THRESHOLD} {}",
                    if tagged { lang_code(q.language) } else { "-" },
                    method_name(self.method),
                    q.text
                )
            }
            Req::Add { name } => {
                let n = &self.names[name as usize];
                format!("ADD {} {}", lang_code(n.language), n.text)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    fn lines(corpus: &BenchCorpus, seed: u64, name: &str, conn: usize, n: usize) -> Vec<String> {
        let w = workload(name).unwrap();
        let pool = if name == "phonidx_cold" {
            corpus.cold_pool(seed, 2000)
        } else {
            corpus.hot_pool(seed, 64)
        };
        let mut g = StreamGen::new(corpus, &pool, w, seed, conn);
        (0..n)
            .map(|_| {
                let r = g.next_req();
                g.render(r)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        let corpus = BenchCorpus::build(600);
        assert_eq!(
            corpus.entries.len(),
            3 * corpus.paired * (corpus.paired - 1)
        );
        for w in &WORKLOADS {
            let a = lines(&corpus, 11, w.name, 0, 300);
            let b = lines(&corpus, 11, w.name, 0, 300);
            assert_eq!(a, b, "{}", w.name);
            assert_ne!(a, lines(&corpus, 12, w.name, 0, 300), "{}", w.name);
            assert_ne!(a, lines(&corpus, 11, w.name, 1, 300), "{}", w.name);
            for line in &a {
                assert!(!line.contains('\n'));
                let parsed = lexequal_service::proto::parse_request(line);
                assert!(matches!(parsed, Ok(Some(_))), "{line}: {parsed:?}");
            }
        }
        // The mixes are what the workloads say they are.
        let wm = lines(&corpus, 11, "write_mix", 0, 2000);
        let adds = wm.iter().filter(|l| l.starts_with("ADD ")).count();
        assert!((300..500).contains(&adds), "{adds} ADDs in 2000");
        assert!(wm
            .iter()
            .all(|l| l.starts_with("ADD ") || l.contains(" scan 0.35 ")));
        let cold = lines(&corpus, 11, "phonidx_cold", 0, 2000);
        let untagged = cold.iter().filter(|l| l.starts_with("MATCH - ")).count();
        assert!(
            (850..1150).contains(&untagged),
            "{untagged} untagged in 2000"
        );
        assert!(lines(&corpus, 11, "qgram_hot", 0, 50)
            .iter()
            .all(|l| l.contains(" qgram 0.35 ")));
    }

    #[test]
    fn pools_are_distinct_and_transformable() {
        let corpus = BenchCorpus::build(600);
        let hot = corpus.hot_pool(5, 64);
        let cold = corpus.cold_pool(5, 3000);
        assert_eq!(hot.len(), 64);
        assert_eq!(cold.len(), 3000);
        for pool in [&hot, &cold] {
            let distinct: std::collections::HashSet<&Text> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len());
        }
        assert_ne!(hot, corpus.hot_pool(6, 64));
        assert_eq!(cold, corpus.cold_pool(5, 3000));
    }
}
