//! The in-process oracle: expected answers computed on one unsharded
//! [`NameStore`] through the pair-at-a-time kernel — a different route
//! from the daemon's sharded, batched one — and the reply checks.

use crate::reply::{parse_reply, Reply};
use crate::spec::THRESHOLD;
use crate::workload::{BenchCorpus, Text};
use lexequal::store::NameEntry;
use lexequal::{LexEqual, NameStore, PhonemeString, Route, Router, SearchMethod};
use lexequal_service::metrics::method_name;

/// Expected answers for one corpus.
pub struct Oracle {
    op: LexEqual,
    store: NameStore,
}

impl Oracle {
    /// An oracle over the corpus, with the phonetic index built (the one
    /// access path whose answer is not the scan answer).
    pub fn new(corpus: &BenchCorpus) -> Self {
        let mut store = NameStore::new(corpus.config.clone());
        store.extend_transformed(corpus.entries.clone());
        store.build_phonetic_index();
        Oracle {
            op: LexEqual::new(corpus.config.clone()),
            store,
        }
    }

    /// Names in the reference store (the id the next `ADD` gets).
    pub fn names(&self) -> usize {
        self.store.len()
    }

    /// Append acknowledged `ADD`s in id order (the phonetic index is
    /// dropped, as in the daemon; `write_mix` only scans).
    pub fn extend(&mut self, names: &[Text]) -> Result<(), String> {
        let entries = names
            .iter()
            .map(|n| {
                Ok(NameEntry {
                    phonemes: self.transform(n)?,
                    text: n.text.clone(),
                    language: n.language,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.store.extend_transformed(entries);
        Ok(())
    }

    /// The phoneme string the daemon derives for a tagged text.
    pub fn transform(&self, t: &Text) -> Result<PhonemeString, String> {
        self.op
            .transform(&t.text, t.language)
            .map_err(|e| format!("{:?} ({}): {e:?}", t.text, t.language))
    }

    /// The phoneme strings an untagged `MATCH -` searches: one per
    /// routed language whose converter accepts the text, identical
    /// renderings collapsed.
    fn untagged_queries(&self, text: &str) -> Vec<PhonemeString> {
        let langs: Vec<_> = match Router::route_text(text) {
            Route::Single(l) => vec![l],
            Route::FanOut(set) => set.to_vec(),
            _ => Vec::new(),
        };
        let mut queries: Vec<PhonemeString> = Vec::new();
        for l in langs {
            if let Ok(q) = self.op.transform(text, l) {
                if !queries.contains(&q) {
                    queries.push(q);
                }
            }
        }
        queries
    }

    /// Expected ids for one `MATCH` at the benchmark's threshold. `scan`
    /// and `qgram` (STRICT: zero false dismissals) must both return the
    /// exact scan answer; `phonidx` its own, which may dismiss.
    pub fn expected(&self, q: &Text, tagged: bool, method: SearchMethod) -> Vec<u32> {
        let path = match method {
            SearchMethod::PhoneticIndex => SearchMethod::PhoneticIndex,
            _ => SearchMethod::Scan,
        };
        let queries = if tagged {
            self.transform(q).into_iter().collect()
        } else {
            self.untagged_queries(&q.text)
        };
        let mut ids: Vec<u32> = queries
            .iter()
            .flat_map(|p| self.store.search_phonemes(p, THRESHOLD, path).ids)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The ids of a well-formed `MATCH` reply served by `method`, else why not.
pub fn match_ids(line: &str, method: SearchMethod) -> Result<Vec<u32>, String> {
    match parse_reply(line)? {
        Reply::Matches {
            method: served,
            ids,
            ..
        } if served == method_name(method) => Ok(ids),
        other => Err(format!(
            "expected a {} answer, got {other:?}",
            method_name(method)
        )),
    }
}

/// Whether `line` is the `MATCH` answer `expected` from `method`.
pub fn check_match(line: &str, expected: &[u32], method: SearchMethod) -> Result<(), String> {
    let ids = match_ids(line, method)?;
    if ids == expected {
        Ok(())
    } else {
        Err(format!(
            "ids differ: got {} ids {:?}…, expected {} ids {:?}…",
            ids.len(),
            &ids[..ids.len().min(6)],
            expected.len(),
            &expected[..expected.len().min(6)]
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_paths_agree_with_the_access_path_contracts() {
        let corpus = BenchCorpus::build(600);
        let oracle = Oracle::new(&corpus);
        let hot = corpus.hot_pool(3, 24);
        let mut nonempty = 0;
        for q in &hot {
            let scan = oracle.expected(q, true, SearchMethod::Scan);
            assert_eq!(scan, oracle.expected(q, true, SearchMethod::Qgram));
            let idx = oracle.expected(q, true, SearchMethod::PhoneticIndex);
            assert!(idx.iter().all(|i| scan.contains(i)), "phonidx ⊆ scan");
            // Untagged fan-out can only add recall.
            let auto = oracle.expected(q, false, SearchMethod::Scan);
            assert!(scan.iter().all(|i| auto.contains(i)));
            nonempty += usize::from(!scan.is_empty());
        }
        assert!(nonempty > hot.len() / 2, "corpus queries find their names");
    }

    #[test]
    fn reply_checks_catch_wrong_ids_method_and_form() {
        let ok = "OK n=2 verified=9 method=scan e=0.35 ids=3,8";
        assert!(check_match(ok, &[3, 8], SearchMethod::Scan).is_ok());
        assert!(check_match(ok, &[3], SearchMethod::Scan).is_err());
        assert!(check_match(ok, &[3, 8], SearchMethod::Qgram).is_err());
        assert!(check_match("NOTBUILT scan", &[], SearchMethod::Scan).is_err());
        assert!(check_match("ERR nope", &[], SearchMethod::Scan).is_err());
    }

    #[test]
    fn extending_makes_new_names_findable() {
        let corpus = BenchCorpus::build(600);
        let mut oracle = Oracle::new(&corpus);
        let base = oracle.names() as u32;
        let q = corpus.hot_pool(3, 1).remove(0);
        let before = oracle.expected(&q, true, SearchMethod::Scan);
        assert!(before.iter().all(|&i| i < base));
        oracle.extend(std::slice::from_ref(&q)).unwrap();
        let mut after = before;
        after.push(base);
        assert_eq!(oracle.expected(&q, true, SearchMethod::Scan), after);
    }
}
