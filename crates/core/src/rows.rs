//! A store's rows as flat columns, in the snapshot image's own layout.
//!
//! A row is three values — text, language and phoneme ids — and `Columns`
//! keeps each as one column over two segments. A row's cluster string (the
//! paper's grouped phoneme string, §5.3) is a function of its phonemes and
//! is not stored: the kernel's cluster screen reads the phoneme ids through
//! a remapped pattern (`crate::verify`), and an index keyed on cluster
//! strings is built from a copy mapped through the cluster table
//! ([`crate::NameStore::read_keys`]). The two segments:
//!
//! * an optional immutable **base**: one shard's rows of a snapshot image
//!   ([`Base`]), read where they lie — in the mapping, or in the buffer a
//!   replica received — through the image's 16-byte entry table
//!   ([`EntryRecord`]). Adopting it allocates nothing and touches no row;
//! * an owned **tail** that every append goes to, a chunk of rows at a
//!   time ([`crate::NameStore::append_rows`]): one byte arena a column and
//!   `u32` end offsets, sized once per bulk load.
//!
//! [`Rows::row`] is the one accessor over both. A row reads as the same
//! three values whichever segment holds it, so nothing downstream — the
//! verification kernel, the access paths' tail rules, the snapshot writer
//! — can tell the segments apart, and ids and verification counts cannot
//! depend on where a row lives.

use lexequal_g2p::{G2pError, Language};
use std::ops::Range;
use std::sync::Arc;

/// Longest text or phoneme string a row may hold, in bytes: an image's
/// entry table keeps `u16` lengths ([`EntryRecord`]), so a longer row could
/// never be saved.
pub const MAX_FIELD_BYTES: usize = u16::MAX as usize;

/// The one length check every row passes on its way in: a row whose text
/// or phoneme string is longer than [`MAX_FIELD_BYTES`] could be held but
/// never saved, so it is refused before it is logged or applied.
pub fn check_field_bytes(text_bytes: usize, phoneme_bytes: usize) -> Result<(), G2pError> {
    let (bytes, limit) = (text_bytes.max(phoneme_bytes), MAX_FIELD_BYTES);
    if bytes > limit {
        return Err(G2pError::TooLong { bytes, limit });
    }
    Ok(())
}

/// One record of a snapshot image's entry table: where a row's text and
/// phonemes lie in their arenas and its language as an index into
/// [`Language::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryRecord {
    /// Text offset in the text arena.
    pub text_off: u32,
    /// Phoneme offset in its arena.
    pub phon_off: u32,
    /// Text length in bytes.
    pub text_len: u16,
    /// Phoneme count.
    pub phon_len: u16,
    /// Index into [`Language::ALL`].
    pub language: u8,
}

impl EntryRecord {
    /// Bytes a record takes in the table.
    pub const BYTES: usize = 16;

    /// Read a record (little-endian fields, three bytes of padding).
    pub fn decode(rec: &[u8; Self::BYTES]) -> Self {
        let [t0, t1, t2, t3, p0, p1, p2, p3, tl0, tl1, pl0, pl1, language, _, _, _] = *rec;
        EntryRecord {
            text_off: u32::from_le_bytes([t0, t1, t2, t3]),
            phon_off: u32::from_le_bytes([p0, p1, p2, p3]),
            text_len: u16::from_le_bytes([tl0, tl1]),
            phon_len: u16::from_le_bytes([pl0, pl1]),
            language,
        }
    }

    /// The record as [`decode`](Self::decode) reads it.
    pub fn encode(&self) -> [u8; Self::BYTES] {
        let mut rec = [0u8; Self::BYTES];
        rec[0..4].copy_from_slice(&self.text_off.to_le_bytes());
        rec[4..8].copy_from_slice(&self.phon_off.to_le_bytes());
        rec[8..10].copy_from_slice(&self.text_len.to_le_bytes());
        rec[10..12].copy_from_slice(&self.phon_len.to_le_bytes());
        rec[12] = self.language;
        rec
    }
}

/// The owner of an image's bytes: a file mapping, or the buffer a replica
/// received the image into.
pub type ImageBytes = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// Where an image keeps each row column, as byte windows into the image.
#[derive(Debug, Clone)]
pub struct ImageLayout {
    /// The entry table: one [`EntryRecord`] a row, in global-id order.
    pub entries: Range<usize>,
    /// UTF-8 text arena.
    pub texts: Range<usize>,
    /// Phoneme-id arena.
    pub phonemes: Range<usize>,
}

/// One shard's rows of a snapshot image, read in place: local row `l` is
/// the image's entry `l * stride + phase`.
#[derive(Clone)]
pub struct Base {
    image: ImageBytes,
    layout: ImageLayout,
    stride: usize,
    phase: usize,
    rows: usize,
    /// Image bytes these rows occupy (records and windows).
    bytes: usize,
}

impl Base {
    /// Shard `phase` of `stride`'s rows of `image`. The caller has
    /// validated the image (its loader checks every arena and every
    /// entry's windows); this checks only the frame — `None` unless every
    /// window lies inside the image and the entry table holds a whole
    /// number of records. A window the loader failed to check is a panic at
    /// the read that uses it, never a read outside the image.
    pub fn new(
        image: ImageBytes,
        layout: ImageLayout,
        stride: usize,
        phase: usize,
    ) -> Option<Self> {
        let len = (*image).as_ref().len();
        let windows = [&layout.entries, &layout.texts, &layout.phonemes];
        let entries = layout.entries.len() / EntryRecord::BYTES;
        let framed = windows.iter().all(|w| w.start <= w.end && w.end <= len)
            && layout.entries.len() == entries * EntryRecord::BYTES
            && phase < stride;
        if !framed {
            return None;
        }
        let mut base = Base {
            image,
            layout,
            stride,
            phase,
            rows: (entries + stride - 1 - phase) / stride,
            bytes: 0,
        };
        let view = base.view();
        base.bytes = (0..base.rows)
            .map(|l| view.record(l))
            .map(|r| EntryRecord::BYTES + r.text_len as usize + r.phon_len as usize)
            .sum();
        Some(base)
    }

    /// Rows this shard holds of the image.
    pub fn rows(&self) -> usize {
        self.rows
    }

    fn view(&self) -> BaseView<'_> {
        let image = (*self.image).as_ref();
        BaseView {
            entries: &image[self.layout.entries.clone()],
            texts: &image[self.layout.texts.clone()],
            phonemes: &image[self.layout.phonemes.clone()],
            stride: self.stride,
            phase: self.phase,
            rows: self.rows,
        }
    }
}

/// A [`Base`] with its windows resolved to slices (an empty one where a
/// store has no base).
#[derive(Clone, Copy)]
struct BaseView<'a> {
    entries: &'a [u8],
    texts: &'a [u8],
    phonemes: &'a [u8],
    stride: usize,
    phase: usize,
    rows: usize,
}

impl<'a> BaseView<'a> {
    const EMPTY: Self = BaseView {
        entries: &[],
        texts: &[],
        phonemes: &[],
        stride: 1,
        phase: 0,
        rows: 0,
    };

    fn record(&self, local: usize) -> EntryRecord {
        let at = (local * self.stride + self.phase) * EntryRecord::BYTES;
        let rec = &self.entries[at..at + EntryRecord::BYTES];
        EntryRecord::decode(rec.try_into().expect("a record-sized window"))
    }

    fn row(&self, local: usize) -> Row<'a> {
        let rec = self.record(local);
        let text = rec.text_off as usize..rec.text_off as usize + rec.text_len as usize;
        let phon = rec.phon_off as usize..rec.phon_off as usize + rec.phon_len as usize;
        Row {
            text: &self.texts[text],
            language: Language::ALL[rec.language as usize],
            phonemes: &self.phonemes[phon],
        }
    }
}

/// The owned segment: what was appended since the store was created or
/// loaded. Row `i` of an arena ends at its `ends[i]`.
#[derive(Default)]
struct Tail {
    texts: Vec<u8>,
    text_ends: Vec<u32>,
    phonemes: Vec<u8>,
    phon_ends: Vec<u32>,
    languages: Vec<Language>,
}

/// One row, read in place.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    text: &'a [u8],
    /// Language tag.
    pub language: Language,
    /// Phoneme inventory ids.
    pub phonemes: &'a [u8],
}

/// The two symbol strings of a row that an access path can be keyed on
/// (see [`crate::BuildSpec::key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyColumn {
    /// [`Row::phonemes`].
    Phonemes,
    /// The phonemes' projection onto their clusters under the store's
    /// cluster table, computed as it is read.
    Clusters,
}

impl<'a> Row<'a> {
    /// The name's bytes (no UTF-8 check, unlike [`text`](Self::text)).
    pub fn text_bytes(&self) -> &'a [u8] {
        self.text
    }

    /// The name as stored.
    ///
    /// # Panics
    ///
    /// Panics if the bytes are not UTF-8: every row is checked when it
    /// comes in (an `&str` on append, the loader's arena and boundary
    /// checks for an image), so this is a broken image under a live store.
    pub fn text(&self) -> &'a str {
        std::str::from_utf8(self.text).expect("row text was validated as UTF-8 when stored")
    }
}

/// A store's rows with both segments resolved to slices: what a search or
/// a copy takes once and then reads row after row.
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    base: BaseView<'a>,
    texts: &'a [u8],
    text_ends: &'a [u32],
    phonemes: &'a [u8],
    phon_ends: &'a [u32],
    languages: &'a [Language],
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.base.rows + self.languages.len()
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn row(&self, i: usize) -> Row<'a> {
        if i < self.base.rows {
            return self.base.row(i);
        }
        let i = i - self.base.rows;
        let start = |ends: &[u32]| if i == 0 { 0 } else { ends[i - 1] as usize };
        let phon = start(self.phon_ends)..self.phon_ends[i] as usize;
        Row {
            text: &self.texts[start(self.text_ends)..self.text_ends[i] as usize],
            language: self.languages[i],
            phonemes: &self.phonemes[phon],
        }
    }
}

/// The row columns of one store: an optional [`Base`] and the owned tail.
#[derive(Default)]
pub(crate) struct Columns {
    base: Option<Base>,
    tail: Tail,
}

impl Columns {
    pub(crate) fn with_base(base: Base) -> Self {
        Columns {
            base: Some(base),
            tail: Tail::default(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.base.as_ref().map_or(0, Base::rows) + self.tail.languages.len()
    }

    pub(crate) fn rows(&self) -> Rows<'_> {
        let t = &self.tail;
        Rows {
            base: self.base.as_ref().map_or(BaseView::EMPTY, Base::view),
            texts: &t.texts,
            text_ends: &t.text_ends,
            phonemes: &t.phonemes,
            phon_ends: &t.phon_ends,
            languages: &t.languages,
        }
    }

    /// Make room for `rows` more rows of `text_bytes` and `phoneme_bytes`
    /// in all, so a bulk load grows each column once.
    pub(crate) fn reserve(&mut self, rows: usize, text_bytes: usize, phoneme_bytes: usize) {
        let t = &mut self.tail;
        t.texts.reserve(text_bytes);
        t.phonemes.reserve(phoneme_bytes);
        t.text_ends.reserve(rows);
        t.phon_ends.reserve(rows);
        t.languages.reserve(rows);
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if an arena would pass 4 GiB (the image format's own limit).
    pub(crate) fn push(&mut self, text: &str, language: Language, phonemes: &[u8]) {
        let t = &mut self.tail;
        t.texts.extend_from_slice(text.as_bytes());
        t.phonemes.extend_from_slice(phonemes);
        let end = |arena: &[u8]| u32::try_from(arena.len()).expect("a column arena under 4 GiB");
        t.text_ends.push(end(&t.texts));
        t.phon_ends.push(end(&t.phonemes));
        t.languages.push(language);
    }

    /// Bytes the owned columns hold, arenas and offsets, by capacity.
    pub(crate) fn owned_bytes(&self) -> usize {
        let t = &self.tail;
        (t.texts.capacity() + t.phonemes.capacity())
            + (t.text_ends.capacity() + t.phon_ends.capacity()) * std::mem::size_of::<u32>()
            + t.languages.capacity() * std::mem::size_of::<Language>()
    }

    /// Image bytes the base rows occupy.
    pub(crate) fn mapped_bytes(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.bytes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn records_round_trip_and_pin_the_byte_layout() {
        let rec = EntryRecord {
            text_off: 0x0403_0201,
            phon_off: 0x0807_0605,
            text_len: 0x0a09,
            phon_len: 0x0c0b,
            language: 13,
        };
        let bytes = rec.encode();
        assert_eq!(bytes, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 0, 0]);
        assert_eq!(EntryRecord::decode(&bytes), rec);
    }

    /// `rows` laid out the way a snapshot image lays them out — entry
    /// table, then the two arenas — behind eight bytes of something else.
    pub(crate) fn image_of(rows: Rows<'_>) -> (ImageBytes, ImageLayout) {
        let mut columns: [Vec<u8>; 3] = Default::default();
        let [entries, texts, phonemes] = &mut columns;
        for row in (0..rows.len()).map(|i| rows.row(i)) {
            let language = Language::ALL.iter().position(|l| *l == row.language);
            let rec = EntryRecord {
                text_off: texts.len() as u32,
                phon_off: phonemes.len() as u32,
                text_len: row.text().len() as u16,
                phon_len: row.phonemes.len() as u16,
                language: language.unwrap() as u8,
            };
            entries.extend_from_slice(&rec.encode());
            texts.extend_from_slice(row.text().as_bytes());
            phonemes.extend_from_slice(row.phonemes);
        }
        let mut image = vec![0xEE; 8];
        let [entries, texts, phonemes] = columns.map(|bytes| {
            image.extend_from_slice(&bytes);
            image.len() - bytes.len()..image.len()
        });
        let layout = ImageLayout {
            entries,
            texts,
            phonemes,
        };
        (Arc::new(image), layout)
    }

    fn three_rows() -> (ImageBytes, ImageLayout) {
        let mut columns = Columns::default();
        let rows: [(&str, usize, &[u8]); 3] =
            [("ab", 0, &[1, 2, 3]), ("", 1, &[]), ("çd", 2, &[4])];
        for (text, language, phon) in rows {
            columns.push(text, Language::ALL[language], phon);
        }
        image_of(columns.rows())
    }

    #[test]
    fn a_base_reads_its_stripe_in_place_and_the_tail_follows_it() {
        let (image, layout) = three_rows();
        let odd = Base::new(Arc::clone(&image), layout.clone(), 2, 1).unwrap();
        assert_eq!((odd.rows(), odd.bytes), (1, 16));
        let even = Base::new(image, layout, 2, 0).unwrap();
        assert_eq!(even.rows(), 2);
        let mut columns = Columns::with_base(even);
        assert_eq!(columns.mapped_bytes(), 2 * 16 + 2 + 3 + 3 + 1);
        assert_eq!(columns.owned_bytes(), 0);
        columns.reserve(1, 1, 2);
        columns.push("x", Language::Hindi, &[7, 8]);
        // By capacity: at least the row's 3 data bytes, its two offsets
        // and its language.
        assert!(columns.owned_bytes() >= 3 + 9);
        let rows = columns.rows();
        assert_eq!((rows.len(), columns.len()), (3, 3));
        let seen: Vec<_> = (0..3).map(|i| rows.row(i)).collect();
        assert_eq!(
            seen.iter().map(|r| r.text()).collect::<Vec<_>>(),
            ["ab", "çd", "x"]
        );
        assert_eq!(seen[0].phonemes, [1, 2, 3]);
        assert_eq!(seen[1].phonemes, [4]);
        assert_eq!(seen[1].language, Language::ALL[2]);
        assert_eq!(seen[2].phonemes, [7, 8]);
        assert_eq!(seen[2].language, Language::Hindi);
    }

    #[test]
    fn a_base_refuses_a_frame_that_does_not_fit() {
        let (image, layout) = three_rows();
        let with = |edit: &dyn Fn(&mut ImageLayout)| {
            let mut l = layout.clone();
            edit(&mut l);
            Base::new(Arc::clone(&image), l, 1, 0).is_none()
        };
        assert!(!with(&|_| {}));
        let past = |l: &mut ImageLayout| l.phonemes = l.phonemes.start + 8..l.phonemes.end + 8;
        assert!(with(&past), "past the image");
        assert!(with(&|l| l.entries.end -= 1), "not a whole record");
        assert!(
            Base::new(image, layout, 2, 2).is_none(),
            "phase past stride"
        );
    }
}
