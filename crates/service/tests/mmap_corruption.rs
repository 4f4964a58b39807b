//! Hostile-binary battery for the mmap snapshot format: every
//! corruption an attacker (or a dying disk) can inflict on an image —
//! truncation at every prefix, a full header byte sweep, bad
//! magic/version/endianness, out-of-bounds and misaligned section
//! offsets, checksum flips, and hostile entry records — must come back
//! as a *named* `ImageError`, never a panic and never undefined behaviour.
//!
//! The test speaks the on-disk layout directly (header offsets, record
//! shapes, the word-folded FNV-1a section checksum), deliberately
//! re-implementing them here so the format is pinned independently of
//! `mmapstore`'s own constants.

use lexequal::{Language, MatchConfig};
use lexequal_service::{mmapstore, ImageError, MatchService, ServiceConfig};

/// Fixed header size: 40 bytes + 4 section-table entries of 24 bytes
/// (a version-4 image; version 3 had 5 entries and a 160-byte header,
/// version 2 had 6 and a 184-byte one).
const HEADER_LEN: usize = 136;
/// Section-table start and record size.
const TABLE_AT: usize = 40;
const TABLE_RECORD: usize = 24;
/// Section indices in a version-4 image.
const SEC_SPECS: usize = 0;
const SEC_ENTRIES: usize = 1;
const SEC_TEXTS: usize = 2;
const SEC_PHONEMES: usize = 3;
/// Section count in each format version (versions 1 to 3 are no longer
/// read).
const V1_SECTIONS: u32 = 5;
const V2_SECTIONS: u32 = 6;
const V3_SECTIONS: u32 = 5;
const V4_SECTIONS: usize = 4;
/// Bytes per entry-table record.
const ENTRY_RECORD: usize = 16;

/// The section checksum, re-implemented: FNV-1a folded over
/// little-endian u64 words, the zero-padded tail hashed as one final
/// word. A drift in `mmapstore`'s algorithm fails the pinning test.
fn section_checksum(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// A small populated image: the seven flagship names, all access paths
/// recorded, covering LSN 9.
fn small_image() -> Vec<u8> {
    let service = MatchService::new(ServiceConfig {
        match_config: MatchConfig::default(),
        cache_capacity: 16,
        ..ServiceConfig::default()
    });
    service
        .extend(
            [
                ("Nehru", Language::English),
                ("नेहरु", Language::Hindi),
                ("நேரு", Language::Tamil),
                ("Nero", Language::English),
                ("Gandhi", Language::English),
                ("गांधी", Language::Hindi),
                ("Krishnan", Language::English),
            ]
            .map(|(t, l)| (t.to_owned(), l)),
        )
        .unwrap();
    service.build_all(3, lexequal::QgramMode::Strict);
    mmapstore::encode(service.store(), 9).expect("encode")
}

fn load(bytes: Vec<u8>) -> Result<mmapstore::LoadedImage, ImageError> {
    mmapstore::load_bytes(MatchConfig::default(), bytes)
}

/// The section count the header declares.
fn section_count(image: &[u8]) -> usize {
    u32::from_le_bytes(image[32..36].try_into().unwrap()) as usize
}

/// Read section `i`'s (offset, length) from the table.
fn section(image: &[u8], i: usize) -> (usize, usize) {
    let at = TABLE_AT + i * TABLE_RECORD;
    let off = u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let len = u64::from_le_bytes(image[at + 8..at + 16].try_into().unwrap()) as usize;
    (off, len)
}

/// Recompute and store section `i`'s checksum after a payload edit, so
/// a test reaches the *semantic* validation behind the checksum wall.
fn reseal(image: &mut [u8], i: usize) {
    let (off, len) = section(image, i);
    let sum = section_checksum(&image[off..off + len]);
    let at = TABLE_AT + i * TABLE_RECORD + 16;
    image[at..at + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Load must fail with a `Parse` error naming the problem.
fn expect_named_err(bytes: Vec<u8>, needle: &str) {
    match load(bytes) {
        Err(ImageError::Parse(msg)) => assert!(
            msg.contains(needle),
            "error {msg:?} does not name {needle:?}"
        ),
        Ok(_) => panic!("hostile image loaded instead of erroring with {needle:?}"),
    }
}

#[test]
fn pristine_image_loads_and_checksums_are_pinned() {
    let image = small_image();
    let loaded = load(image.clone()).expect("pristine image");
    assert_eq!(loaded.lsn, 9);
    assert_eq!(loaded.store.len(), 7);
    assert_eq!(loaded.builds.len(), 3);
    // Every stored checksum matches this test's independent FNV — the
    // algorithm is pinned, not just internally consistent.
    assert_eq!(section_count(&image), V4_SECTIONS);
    for i in 0..V4_SECTIONS {
        let (off, len) = section(&image, i);
        let at = TABLE_AT + i * TABLE_RECORD + 16;
        let stored = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        assert_eq!(
            stored,
            section_checksum(&image[off..off + len]),
            "section {i} checksum algorithm drifted"
        );
    }
}

#[test]
fn truncation_at_every_prefix_errors_cleanly() {
    let image = small_image();
    for len in 0..image.len() {
        let outcome = load(image[..len].to_vec());
        assert!(
            outcome.is_err(),
            "truncation to {len}/{} bytes loaded successfully",
            image.len()
        );
    }
}

#[test]
fn header_byte_sweep_never_panics() {
    let image = small_image();
    for i in 0..HEADER_LEN {
        let mut hostile = image.clone();
        hostile[i] ^= 0xFF;
        let outcome = load(hostile);
        // Magic, version, endianness, entry count, section count and
        // the whole section table are integrity-critical: any flipped
        // byte there must be rejected. The LSN, the reserved word and
        // (some) shard-count bytes are data, not framing — a flip there
        // may load, but must never panic (the call returning at all is
        // that assertion).
        let must_reject = i < 16 || (20..24).contains(&i) || (32..36).contains(&i) || i >= TABLE_AT;
        if must_reject {
            assert!(outcome.is_err(), "flipped header byte {i} loaded anyway");
        }
    }
}

#[test]
fn bad_magic_version_endianness_and_counts_are_named() {
    let image = small_image();

    let mut bad_magic = image.clone();
    bad_magic[0] = b'X';
    expect_named_err(bad_magic, "bad magic");

    let mut bad_version = image.clone();
    bad_version[8..12].copy_from_slice(&5u32.to_le_bytes());
    expect_named_err(bad_version, "unsupported format version 5");

    let mut bad_endian = image.clone();
    bad_endian[12..16].copy_from_slice(&0x0403_0201u32.to_le_bytes());
    expect_named_err(bad_endian, "endianness tag");

    let mut zero_shards = image.clone();
    zero_shards[16..20].copy_from_slice(&0u32.to_le_bytes());
    expect_named_err(zero_shards, "zero shard count");

    // The shard count is otherwise ignored (the store is one partition),
    // but a count no writer could have written marks a corrupt header.
    let mut huge_shards = image.clone();
    huge_shards[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
    expect_named_err(huge_shards, "implausible shard count");

    let mut bad_entry_count = image.clone();
    bad_entry_count[20..24].copy_from_slice(&6u32.to_le_bytes());
    expect_named_err(bad_entry_count, "6 entries need");

    let mut bad_section_count = image.clone();
    bad_section_count[32..36].copy_from_slice(&3u32.to_le_bytes());
    expect_named_err(bad_section_count, "section count 3");
}

#[test]
fn oob_and_misaligned_sections_are_named() {
    let image = small_image();
    let off_at = TABLE_AT + SEC_TEXTS * TABLE_RECORD;
    let len_at = off_at + 8;

    // Offset far past the file (kept 8-byte aligned so the bounds
    // check, not the alignment check, fires).
    let mut far = image.clone();
    far[off_at..off_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    expect_named_err(far, "section 2 is out of bounds");

    // Offset pointing back into the header.
    let mut inside_header = image.clone();
    inside_header[off_at..off_at + 8].copy_from_slice(&8u64.to_le_bytes());
    expect_named_err(inside_header, "section 2 overlaps the header");

    // Offset off the 8-byte grid.
    let (text_off, _) = section(&image, SEC_TEXTS);
    let mut misaligned = image.clone();
    misaligned[off_at..off_at + 8].copy_from_slice(&((text_off as u64) + 4).to_le_bytes());
    expect_named_err(misaligned, "section 2 is misaligned");

    // Length that overflows offset + length.
    let mut huge_len = image.clone();
    huge_len[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    expect_named_err(huge_len, "section 2 is out of bounds");
}

#[test]
fn checksum_flip_in_every_section_is_caught() {
    let image = small_image();
    assert_eq!(section_count(&image), V4_SECTIONS);
    for i in 0..V4_SECTIONS {
        let (off, len) = section(&image, i);
        assert!(len > 0, "section {i} unexpectedly empty");
        let mut flipped = image.clone();
        flipped[off] ^= 0xFF;
        expect_named_err(flipped, &format!("section {i} checksum mismatch"));
    }
}

#[test]
fn hostile_entry_records_are_named() {
    let image = small_image();
    let (ent_off, ent_len) = section(&image, SEC_ENTRIES);
    assert_eq!(ent_len % ENTRY_RECORD, 0);

    // Text window pointing far outside the arena. The checksum is
    // resealed so the *window* validation, not the checksum, answers.
    let mut oob_text = image.clone();
    oob_text[ent_off..ent_off + 4].copy_from_slice(&0xFFFF_0000u32.to_le_bytes());
    reseal(&mut oob_text, SEC_ENTRIES);
    expect_named_err(oob_text, "entry 0: text window is out of bounds");

    // Phoneme window likewise.
    let mut oob_phon = image.clone();
    oob_phon[ent_off + 4..ent_off + 8].copy_from_slice(&0xFFFF_0000u32.to_le_bytes());
    reseal(&mut oob_phon, SEC_ENTRIES);
    expect_named_err(oob_phon, "entry 0: phoneme window is out of bounds");

    // A language tag past `Language::ALL`.
    let mut bad_lang = image.clone();
    bad_lang[ent_off + 12] = 200;
    reseal(&mut bad_lang, SEC_ENTRIES);
    expect_named_err(bad_lang, "entry 0: unknown language tag 200");

    // Shift a multiscript entry's window one byte right: the start now
    // lands inside a Devanagari/Tamil UTF-8 sequence (the end stays on
    // a boundary because the length shrinks by one).
    let (text_off, _) = section(&image, SEC_TEXTS);
    let mut split = image.clone();
    let mut split_entry = None;
    for g in 0..ent_len / ENTRY_RECORD {
        let rec = ent_off + g * ENTRY_RECORD;
        let t_off = u32::from_le_bytes(image[rec..rec + 4].try_into().unwrap());
        let t_len = u16::from_le_bytes(image[rec + 8..rec + 10].try_into().unwrap());
        if t_len > 1 && image[text_off + t_off as usize] >= 0xC0 {
            split[rec..rec + 4].copy_from_slice(&(t_off + 1).to_le_bytes());
            split[rec + 8..rec + 10].copy_from_slice(&(t_len - 1).to_le_bytes());
            split_entry = Some(g);
            break;
        }
    }
    let g = split_entry.expect("corpus holds a multibyte-script entry");
    reseal(&mut split, SEC_ENTRIES);
    expect_named_err(
        split,
        &format!("entry {g}: text window splits a UTF-8 sequence"),
    );
}

#[test]
fn hostile_arenas_and_specs_are_named() {
    let image = small_image();

    // A text-arena byte smashed to a UTF-8 continuation-only value.
    let (text_off, text_len) = section(&image, SEC_TEXTS);
    assert!(text_len > 0);
    let mut bad_utf8 = image.clone();
    bad_utf8[text_off] = 0xFF;
    reseal(&mut bad_utf8, SEC_TEXTS);
    expect_named_err(bad_utf8, "text arena is not valid UTF-8");

    // A phoneme byte outside the inventory.
    let (phon_off, phon_len) = section(&image, SEC_PHONEMES);
    assert!(phon_len > 0);
    let mut bad_phoneme = image.clone();
    bad_phoneme[phon_off] = 0xFE;
    reseal(&mut bad_phoneme, SEC_PHONEMES);
    expect_named_err(bad_phoneme, "outside the inventory");

    // Unknown build-spec tag and q-gram mode.
    let (spec_off, spec_len) = section(&image, SEC_SPECS);
    assert!(spec_len >= 8, "three recorded builds expected");
    let mut bad_tag = image.clone();
    bad_tag[spec_off] = 9;
    reseal(&mut bad_tag, SEC_SPECS);
    expect_named_err(bad_tag, "unknown build-spec tag 9");

    let qgram_rec = (0..spec_len / 8)
        .map(|i| spec_off + i * 8)
        .find(|&at| image[at] == 0)
        .expect("a recorded q-gram spec");
    let mut bad_mode = image.clone();
    bad_mode[qgram_rec + 2] = 7;
    reseal(&mut bad_mode, SEC_SPECS);
    expect_named_err(bad_mode, "unknown q-gram mode 7");

    // A gram length no index can be built at, behind a valid checksum: the
    // load names it (declaring it would panic the first search through it).
    for q in [0u8, 5, 255] {
        let mut bad_q = image.clone();
        bad_q[qgram_rec + 1] = q;
        reseal(&mut bad_q, SEC_SPECS);
        expect_named_err(bad_q, &format!("q-gram length {q} is outside 1..=4"));
    }

    // Spec section length that is not a record multiple.
    let spec_len_at = TABLE_AT + SEC_SPECS * TABLE_RECORD + 8;
    let mut ragged = image.clone();
    ragged[spec_len_at..spec_len_at + 8].copy_from_slice(&((spec_len as u64) - 1).to_le_bytes());
    reseal(&mut ragged, SEC_SPECS);
    expect_named_err(ragged, "not a record multiple");
}

/// A version-1 image — synthesized by re-tagging a v4 image and declaring
/// v1's five sections — is no longer read
/// (none was ever written outside tests): its header is the named version
/// error, never a panic and never a load.
#[test]
fn v1_images_are_a_named_version_error() {
    let image = small_image();
    let mut v1 = image.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    expect_named_err(v1.clone(), "unsupported format version 1");
    v1[32..36].copy_from_slice(&V1_SECTIONS.to_le_bytes());
    expect_named_err(v1.clone(), "unsupported format version 1");
    // Cut to the 160-byte header a real v1 file had.
    v1.truncate(40 + V1_SECTIONS as usize * TABLE_RECORD);
    assert!(load(v1).is_err());
}

/// A version-2 image (six sections: these four, a cluster arena and a
/// 32-byte embedding a row) is not read: its header is the named version
/// error, whether it declares its own six sections or this build's four.
#[test]
fn v2_images_are_a_named_version_error() {
    let mut v2 = small_image();
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    expect_named_err(v2.clone(), "unsupported format version 2");
    v2[32..36].copy_from_slice(&V2_SECTIONS.to_le_bytes());
    expect_named_err(v2, "unsupported format version 2");
}

/// A version-3 image (five sections: these four and a cluster arena
/// parallel to the phoneme arena) is not read: its header is the named
/// version error, whether it declares its own five sections or this
/// build's four.
#[test]
fn v3_images_are_a_named_version_error() {
    let mut v3 = small_image();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    expect_named_err(v3.clone(), "unsupported format version 3");
    v3[32..36].copy_from_slice(&V3_SECTIONS.to_le_bytes());
    expect_named_err(v3, "unsupported format version 3");
}

/// A version-4 header that declares a fifth section — a v3 cluster arena
/// under a v4 version word — is the section-count error.
#[test]
fn a_v4_header_declaring_five_sections_is_the_section_count_error() {
    let mut five = small_image();
    five[32..36].copy_from_slice(&V3_SECTIONS.to_le_bytes());
    expect_named_err(five, "section count 5 (version 4 holds 4)");
}

#[test]
fn garbage_and_tiny_files_error_cleanly() {
    expect_named_err(Vec::new(), "file too small");
    expect_named_err(vec![0x41; 32], "file too small");
    expect_named_err(vec![0xAB; 4096], "bad magic");

    // Correct magic, garbage everything else.
    let mut magic_only = vec![0xAB; 4096];
    magic_only[..8].copy_from_slice(&mmapstore::MAGIC);
    expect_named_err(magic_only, "unsupported format version");
}
