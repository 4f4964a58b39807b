//! Totality properties: the converters must never panic and must emit
//! only inventory-valid IPA, for *any* input in their script — the
//! database deployment (UDF called on arbitrary column values) depends
//! on it.

use lexequal_g2p::{G2pRegistry, Language, Script};
use lexequal_phoneme::testkit::{ensure, ensure_eq, for_cases};
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn registry() -> G2pRegistry {
    G2pRegistry::standard()
}

/// English: any ASCII-ish text converts without panicking; outputs parse
/// back into the inventory (guaranteed by the Ok type) and are
/// deterministic.
#[test]
fn english_total_on_ascii() {
    let r = registry();
    for_cases(0x7a01, 512, |rng| {
        let s = rng.string("A-Za-z' -", 0..=24);
        let (a, b) = (
            r.transform(&s, Language::English),
            r.transform(&s, Language::English),
        );
        ensure_eq(a.ok(), b.ok())
    });
}

/// The code points a converter for `script` reads: the script's Unicode
/// block. Latin is Basic Latin through Latin Extended-B, so it holds
/// ASCII punctuation and every accented letter the English, French and
/// Spanish rules fold or read.
fn block(script: Script) -> RangeInclusive<u32> {
    match script {
        Script::Latin => 0x0000..=0x024F,
        Script::Devanagari => 0x0900..=0x097F,
        Script::Tamil => 0x0B80..=0x0BFF,
        Script::Greek => 0x0370..=0x03FF,
        Script::Cyrillic => 0x0400..=0x04FF,
        Script::Arabic => 0x0600..=0x06FF,
        Script::Kana => 0x3040..=0x30FF,
        other => unreachable!("no converter reads {other}"),
    }
}

/// Every converter, on arbitrary text from its script's block, either
/// converts or reports a specific untranslatable character — never panics.
#[test]
fn every_converter_is_total_on_its_script() {
    let r = registry();
    for (i, lang) in Language::CONVERTIBLE.into_iter().enumerate() {
        let block = block(lang.script());
        for_cases(0x7a10 + i as u64, 256, |rng| {
            let s = rng.code_points(block.clone(), 0..=16);
            let converted = catch_unwind(AssertUnwindSafe(|| r.transform(&s, lang)));
            ensure(converted.is_ok(), || format!("{lang} panicked on {s:?}"))
        });
    }
}

/// Completely arbitrary Unicode: conversion may fail but not panic, in
/// every language — the tags without a converter (Korean, Thai) included.
#[test]
fn never_panics_on_arbitrary_unicode() {
    let r = registry();
    for_cases(0x7a02, 256, |rng| {
        let s: String = rng.vec(0..=12, |rng| rng.any_char()).into_iter().collect();
        for lang in Language::ALL {
            let converted = catch_unwind(AssertUnwindSafe(|| r.transform(&s, lang)));
            ensure(converted.is_ok(), || format!("{lang} panicked on {s:?}"))?;
        }
        Ok(())
    });
}

/// Transliteration round trips: any English conversion result can be
/// rendered in both Indic scripts and read back by the respective
/// converters without error.
#[test]
fn translit_roundtrip_total() {
    let r = registry();
    for_cases(0x7a03, 512, |rng| {
        let s = rng.string("A-Za-z", 1..=16);
        let Ok(p) = r.transform(&s, Language::English) else {
            return Ok(());
        };
        if p.is_empty() {
            return Ok(());
        }
        let deva = lexequal_g2p::translit::to_devanagari(&p);
        let tamil = lexequal_g2p::translit::to_tamil(&p);
        ensure(
            deva.is_empty() || r.transform(&deva, Language::Hindi).is_ok(),
            || format!("Hindi G2P rejected transliterator output {deva:?} for {s:?}"),
        )?;
        ensure(
            tamil.is_empty() || r.transform(&tamil, Language::Tamil).is_ok(),
            || format!("Tamil G2P rejected transliterator output {tamil:?} for {s:?}"),
        )
    });
}
