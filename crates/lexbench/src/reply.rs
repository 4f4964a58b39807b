//! Parser for every response form in `lexequal_service::proto`'s grammar.

use std::collections::BTreeMap;

/// One parsed response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK <id>` — an `ADD` committed under this global id.
    Added(u32),
    /// `OK built=<what>`.
    Built(String),
    /// `OK n=<k> verified=<v> method=<m> e=<e> ids=<a,b,…>`.
    Matches {
        /// Access path that served it.
        method: String,
        /// Exact-predicate evaluations the daemon spent.
        verified: u64,
        /// Matching ids, ascending.
        ids: Vec<u32>,
    },
    /// Any other `OK key=value …` line (`STATS`, `SAVE`, `COMPACT`).
    Fields(BTreeMap<String, String>),
    /// `NORESOURCE <lang>`.
    NoResource(String),
    /// `NOTBUILT <method>`.
    NotBuilt(String),
    /// `ERR <message>`.
    Err(String),
    /// `BYE`.
    Bye,
}

/// Parse one response line (without its newline).
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let (head, rest) = match line.split_once(' ') {
        Some((h, r)) => (h, r),
        None => (line, ""),
    };
    match head {
        "BYE" => Ok(Reply::Bye),
        "ERR" => Ok(Reply::Err(rest.to_owned())),
        "NORESOURCE" => Ok(Reply::NoResource(rest.to_owned())),
        "NOTBUILT" => Ok(Reply::NotBuilt(rest.to_owned())),
        "OK" => parse_ok(rest).ok_or_else(|| format!("malformed OK line {line:?}")),
        _ => Err(format!("unknown response {line:?}")),
    }
}

fn parse_ok(rest: &str) -> Option<Reply> {
    if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
        return rest.parse().ok().map(Reply::Added);
    }
    if let Some(what) = rest.strip_prefix("built=") {
        return Some(Reply::Built(what.to_owned()));
    }
    let mut fields = BTreeMap::new();
    for tok in rest.split(' ').filter(|t| !t.is_empty()) {
        match tok.split_once('=') {
            Some((k, v)) => fields.insert(k.to_owned(), v.to_owned()),
            // `OK compacted checkpoint_lsn=…`: a bare word marks the verb.
            None => fields.insert(tok.to_owned(), String::new()),
        };
    }
    if rest.starts_with("n=") {
        let ids_text = fields.get("ids")?;
        let ids = if ids_text.is_empty() {
            Vec::new()
        } else {
            ids_text
                .split(',')
                .map(|t| t.parse::<u32>().ok())
                .collect::<Option<Vec<u32>>>()?
        };
        if fields.get("n")?.parse::<usize>().ok()? != ids.len() {
            return None;
        }
        return Some(Reply::Matches {
            method: fields.get("method")?.clone(),
            verified: fields.get("verified")?.parse().ok()?,
            ids,
        });
    }
    Some(Reply::Fields(fields))
}

/// A numeric field of a `STATS`-style reply (missing or non-numeric → 0,
/// which is what an absent optional block means).
pub fn field_u64(fields: &BTreeMap<String, String>, key: &str) -> u64 {
    fields.get(key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lexequal::{Language, SearchMethod};
    use lexequal_service::proto::format_outcome;
    use lexequal_service::MatchOutcome;

    #[test]
    fn parses_every_response_form_of_the_grammar() {
        assert_eq!(parse_reply("OK 20418"), Ok(Reply::Added(20418)));
        assert_eq!(
            parse_reply("OK built=all"),
            Ok(Reply::Built("all".to_owned()))
        );
        assert_eq!(parse_reply("BYE"), Ok(Reply::Bye));
        assert_eq!(
            parse_reply("ERR bad input: NoRule"),
            Ok(Reply::Err("bad input: NoRule".to_owned()))
        );
        // The daemon's own formatter is the source of truth for lookups.
        let line = format_outcome(&MatchOutcome::Matches {
            method: SearchMethod::Qgram,
            threshold: 0.35,
            ids: vec![1, 5, 9],
            verifications: 12,
        });
        assert_eq!(
            parse_reply(&line),
            Ok(Reply::Matches {
                method: "qgram".to_owned(),
                verified: 12,
                ids: vec![1, 5, 9]
            })
        );
        let empty = format_outcome(&MatchOutcome::Matches {
            method: SearchMethod::Scan,
            threshold: 0.35,
            ids: vec![],
            verifications: 4,
        });
        assert_eq!(
            parse_reply(&empty),
            Ok(Reply::Matches {
                method: "scan".to_owned(),
                verified: 4,
                ids: vec![]
            })
        );
        assert_eq!(
            parse_reply(&format_outcome(&MatchOutcome::NoResource(Language::Korean))),
            Ok(Reply::NoResource("Korean".to_owned()))
        );
        assert_eq!(
            parse_reply(&format_outcome(&MatchOutcome::NotBuilt(
                SearchMethod::BkTree
            ))),
            Ok(Reply::NotBuilt("bktree".to_owned()))
        );
        assert!(matches!(
            parse_reply(&format_outcome(&MatchOutcome::BadInput("x\ny".into()))),
            Ok(Reply::Err(_))
        ));
        // STATS / SAVE / COMPACT are key=value lines.
        let Ok(Reply::Fields(f)) = parse_reply("OK names=3 shards=2 cache_hits=7 simd=avx2") else {
            panic!()
        };
        assert_eq!(field_u64(&f, "cache_hits"), 7);
        assert_eq!(field_u64(&f, "compactions"), 0);
        assert_eq!(f["simd"], "avx2");
        let Ok(Reply::Fields(f)) = parse_reply("OK saved=/tmp/x names=3 lsn=9") else {
            panic!()
        };
        assert_eq!(f["saved"], "/tmp/x");
        let Ok(Reply::Fields(f)) =
            parse_reply("OK compacted checkpoint_lsn=9 horizon=9 dropped=4 wal_bytes_live=17")
        else {
            panic!()
        };
        assert!(f.contains_key("compacted"));
        assert_eq!(field_u64(&f, "dropped"), 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_reply("").is_err());
        assert!(parse_reply("HELLO").is_err());
        assert!(parse_reply("OK n=2 verified=1 method=scan e=0.35 ids=1").is_err());
        assert!(parse_reply("OK n=1 verified=1 method=scan e=0.35 ids=x").is_err());
        assert!(parse_reply("OK n=0 verified=1 e=0.35 ids=").is_err());
    }
}
