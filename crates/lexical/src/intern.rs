//! Token interning and whole-match memoization of token similarity.
//!
//! Real schemas reuse a small token vocabulary ("customer", "order",
//! "address") across dozens of elements, yet the linguistic phase's
//! `ns(m1, m2)` recomputes `sim(t1, t2)` — a thesaurus lookup (which
//! canonicalizes and allocates) plus an affix byte-scan — for the full
//! token cross product of *every* compared element pair. This module
//! fixes that asymptotically (see DESIGN.md §6):
//!
//! * [`TokenTable`] interns each distinct `(similarity class, canonical
//!   text)` pair into a dense [`TokenId`]. The key is exactly the
//!   information [`crate::strsim::class_similarity`] depends on, so two
//!   tokens with the same id are interchangeable for `sim`.
//! * [`TokenSimCache`] lazily memoizes `sim` over the triangular
//!   `|V|·(|V|+1)/2` index space of the interned vocabulary: each
//!   distinct token pair is computed exactly once (symmetry of `sim`
//!   makes the triangular layout lossless), and every further
//!   comparison is a single array load.
//! * One level up, the table interns element names into [`NameId`]s and
//!   memoizes `ns` per name pair ([`TokenSimCache::name_sim`]).
//!
//! Both memos are [`SimStore`]s owned by the table: chunked, allocated
//! on first write, reserved by the interning call that grows the table,
//! and filled through `&`, so one memo serves every pair and every
//! shard of a batch session (DESIGN.md §7).
//!
//! The interned fast path is bit-identical to the direct string path —
//! both call the same [`crate::strsim::class_similarity`] on the same
//! inputs — which `tests/linguistic_equivalence.rs` asserts over
//! randomized schemas and thesauri.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

use cupid_model::{WireError, WireReader, WireWriter};

use crate::normalize::NormalizedName;
use crate::strsim::{class_similarity, AffixConfig};
use crate::thesaurus::Thesaurus;
use crate::token::{SimClass, Token};

/// Dense id of a distinct `(similarity class, canonical text)` pair in a
/// [`TokenTable`]. Ids are only meaningful relative to the table that
/// produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(u32);

impl TokenId {
    /// The dense index of this id (0-based, contiguous per table).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from a raw index (wire decoding within this
    /// crate and `cupid-core`; bounds are the caller's obligation).
    #[inline]
    pub(crate) fn from_raw(i: u32) -> Self {
        TokenId(i)
    }
}

/// Decode a token id written as a raw `u32` index, bounds-checked
/// against a vocabulary size. Shared by the wire decoders of this crate
/// and `cupid-core` (which cannot construct [`TokenId`] directly).
pub fn token_id_from_wire(
    r: &WireReader<'_>,
    raw: u32,
    vocab: usize,
) -> Result<TokenId, WireError> {
    if (raw as usize) < vocab {
        Ok(TokenId::from_raw(raw))
    } else {
        Err(r.err(format!("token id {raw} out of bounds (vocabulary {vocab})")))
    }
}

/// Dense id of a distinct element-name key in a [`TokenTable`]
/// ([`TokenTable::intern_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// The dense index of this id (0-based, contiguous per table).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Name ids at or past this bound are not memoized, which caps the name
/// memo at the triangle of 1,024 names: 524,800 slots in 129 chunks,
/// 4,227,072 bytes.
pub const NAME_BOUND: usize = 1024;

/// Token ids at or past this bound are not memoized, which caps the
/// token memo ([`SimStore`]) at the triangle of 4,096 tokens: a
/// directory of 2,049 entries (48 KiB) and at most 2,049 chunks
/// (64 MiB).
pub const TOKEN_BOUND: usize = 4096;

/// Interner mapping `(similarity class, canonical token text)` to dense
/// [`TokenId`]s.
///
/// One table serves a whole match (both schemas plus category keywords),
/// so the vocabulary is shared and a [`TokenSimCache`] over it covers
/// every token comparison the linguistic phase will make. Batch sessions
/// reuse one table across pairs.
///
/// The table owns both memos: `sim` per token pair ([`TokenTable::store`])
/// and `ns` per name pair ([`TokenSimCache::name_sim`]), each reserved
/// by the call that grows the table, and a clone copies both. So every
/// cache over it must use one thesaurus, affix configuration and set of
/// token weights. Names are derived state: the wire format omits them,
/// and a decoded table starts with an empty name memo.
#[derive(Debug, Default, Clone)]
pub struct TokenTable {
    /// Per-[`SimClass`] text → id index (split per class so lookups can
    /// borrow `&str` without building a composite key).
    index: [HashMap<String, u32>; 3],
    /// id → (class, text), in interning order.
    entries: Vec<(SimClass, String)>,
    /// `sim` per token pair.
    sims: SimStore,
    /// Name key → name id.
    names: HashMap<Box<[u32]>, u32>,
    /// `ns` per name pair.
    name_sims: SimStore,
}

impl TokenTable {
    /// An empty table.
    pub fn new() -> Self {
        TokenTable::default()
    }

    /// Number of distinct interned tokens (the vocabulary size `|V|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated heap bytes held by the table: entry texts, index keys
    /// and name keys plus their fixed per-entry overheads. A
    /// deterministic diagnostics gauge (served through the daemon's
    /// `Stats` frame and `/metrics`), not an allocator audit — hash-map
    /// capacity slack is not counted.
    pub fn approx_bytes(&self) -> usize {
        let entry_fixed = std::mem::size_of::<(SimClass, String)>();
        let key_fixed = std::mem::size_of::<String>() + std::mem::size_of::<u32>();
        let name_fixed = std::mem::size_of::<(Box<[u32]>, u32)>();
        let entries: usize = self.entries.iter().map(|(_, t)| t.len() + entry_fixed).sum();
        let index: usize =
            self.index.iter().flat_map(|m| m.keys()).map(|k| k.len() + key_fixed).sum();
        let names: usize =
            self.names.keys().map(|k| std::mem::size_of_val(&**k) + name_fixed).sum();
        entries + index + names
    }

    /// Intern an element name by a key that decides its `ns` against
    /// every other name, so equal keys can share memo slots, and
    /// reserve the name memo for it.
    pub fn intern_key(&mut self, key: &[u32]) -> NameId {
        if let Some(&id) = self.names.get(key) {
            return NameId(id);
        }
        let id = u32::try_from(self.names.len()).expect("names exceed u32");
        self.names.insert(key.into(), id);
        self.name_sims.reserve(self.names.len().min(NAME_BOUND));
        NameId(id)
    }

    /// Number of distinct interned names.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Bytes committed by the name memo's chunks.
    pub fn name_memo_bytes(&self) -> usize {
        self.name_sims.allocated_bytes()
    }

    /// The token memo, which every [`TokenSimCache::new`] over the table
    /// fills.
    pub fn store(&self) -> &SimStore {
        &self.sims
    }

    /// Intern a `(class, text)` pair, returning its dense id, and
    /// reserve the token memo for it.
    pub fn intern(&mut self, class: SimClass, text: &str) -> TokenId {
        let map = &mut self.index[class.index()];
        if let Some(&id) = map.get(text) {
            return TokenId(id);
        }
        let id = u32::try_from(self.entries.len()).expect("vocabulary exceeds u32");
        map.insert(text.to_string(), id);
        self.entries.push((class, text.to_string()));
        self.sims.reserve(self.entries.len());
        TokenId(id)
    }

    /// Intern one token (by its similarity class and canonical text).
    #[inline]
    pub fn intern_token(&mut self, token: &Token) -> TokenId {
        self.intern(token.ttype.sim_class(), &token.text)
    }

    /// Intern every token of a normalized name, filling
    /// [`NormalizedName::ids`] (parallel to `tokens`). Idempotent:
    /// re-interning overwrites `ids` with identical values.
    pub fn intern_name(&mut self, name: &mut NormalizedName) {
        name.ids.clear();
        name.ids.reserve(name.tokens.len());
        for i in 0..name.tokens.len() {
            let id = self.intern(name.tokens[i].ttype.sim_class(), &name.tokens[i].text);
            name.ids.push(id);
        }
    }

    /// Id of an already-interned pair, if present.
    pub fn lookup(&self, class: SimClass, text: &str) -> Option<TokenId> {
        self.index[class.index()].get(text).map(|&id| TokenId(id))
    }

    /// Canonical text of an interned token.
    #[inline]
    pub fn text(&self, id: TokenId) -> &str {
        &self.entries[id.index()].1
    }

    /// Similarity class of an interned token.
    #[inline]
    pub fn class(&self, id: TokenId) -> SimClass {
        self.entries[id.index()].0
    }

    /// Iterate every interned entry in id order — the stable iteration
    /// hook snapshots are built on: encoding, then re-interning in this
    /// order, reproduces the exact same id assignment.
    pub fn entries(&self) -> impl Iterator<Item = (TokenId, SimClass, &str)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, (c, t))| (TokenId::from_raw(i as u32), *c, t.as_str()))
    }

    /// Encode the table: every entry in id order, then the token memo
    /// (names and their memo are not written).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_list(&self.entries, |w, (c, t)| {
            w.put_u8(c.index() as u8);
            w.put_str(t);
        });
        self.sims.write_wire(w);
    }

    /// Decode a table written by [`TokenTable::write_wire`]. Entries
    /// are re-interned in stored order, so every id comes back exactly
    /// as it was assigned — which is what keeps persisted id slices
    /// ([`NormalizedName::ids`] and the core's per-element id tables)
    /// valid against the decoded table.
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<TokenTable, WireError> {
        let n = r.get_len()?;
        let mut table = TokenTable::new();
        for i in 0..n {
            let class = match r.get_u8()? {
                c if (c as usize) < SimClass::ALL.len() => SimClass::ALL[c as usize],
                c => return Err(r.err(format!("unknown sim class code {c}"))),
            };
            let text = r.get_str()?;
            let id = table.intern(class, &text);
            if id.index() != i {
                return Err(r.err(format!("duplicate interned entry at id {i}")));
            }
        }
        table.sims = SimStore::read_wire(r, table.len())?;
        Ok(table)
    }
}

/// Entries per lazily-allocated chunk of the triangular similarity
/// matrix (4096 × 8 bytes = 32 KiB per chunk).
const CHUNK_BITS: usize = 12;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// A slot's "not computed" bits.
const NAN_BITS: u64 = f64::NAN.to_bits();

/// A memo of a symmetric pure function over the triangular index space
/// `k = j·(j+1)/2 + i` (`i ≤ j`) of a [`TokenTable`]'s ids: `sim` per
/// token pair, or `ns` per name pair. A write-once memo that caches
/// fill through `&` (DESIGN.md §7). Slots are `AtomicU64`s holding f64
/// bits, `NaN` meaning "not computed", in fixed-size chunks allocated on
/// first write instead of as an eager `|V|·(|V|+1)/2` buffer —
/// corpus-scale vocabularies would otherwise commit quadratic memory up
/// front.
///
/// The chunk directory grows only under `&mut`, when the table that owns
/// the store grows, to the table's triangle, capped at [`TOKEN_BOUND`]'s
/// (names at [`NAME_BOUND`]'s); a pair past it is computed and not
/// memoized. Because `k` depends only on the pair `(i, j)`, the store
/// stays valid when its table grows. Slots are read and written
/// `Relaxed`: a slot publishes no other data, and it memoizes a pure
/// function, so threads racing on it write the same bits and only the
/// first write counts.
#[derive(Debug, Default)]
pub struct SimStore {
    chunks: Vec<OnceLock<Box<[AtomicU64]>>>,
    computed: AtomicUsize,
}

impl Clone for SimStore {
    /// An independent deep copy.
    fn clone(&self) -> Self {
        let copy = |chunk: &OnceLock<Box<[AtomicU64]>>| {
            chunk.get().map_or_else(OnceLock::new, |slots| {
                OnceLock::from(
                    slots.iter().map(|v| AtomicU64::new(v.load(Relaxed))).collect::<Box<_>>(),
                )
            })
        };
        SimStore {
            chunks: self.chunks.iter().map(copy).collect(),
            computed: AtomicUsize::new(self.distinct_pairs_computed()),
        }
    }
}

impl SimStore {
    /// An empty store.
    pub fn new() -> Self {
        SimStore::default()
    }

    /// Grow the chunk directory to the triangle of `vocab` ids (tokens,
    /// or names), capped at [`TOKEN_BOUND`], so every pair of them below
    /// the bound is memoized. Chunks are still allocated on their first
    /// write.
    pub(crate) fn reserve(&mut self, vocab: usize) {
        let vocab = vocab.min(TOKEN_BOUND);
        let len = (vocab * (vocab + 1) / 2).div_ceil(CHUNK_LEN);
        if len > self.chunks.len() {
            self.chunks.resize_with(len, OnceLock::new);
        }
    }

    /// The memoized value of the pair `(a, b)`, computed as `f(i, j)`
    /// over the ordered pair (`i ≤ j`) on a miss and then written, unless
    /// its slot lies past the reserved directory; only the write that
    /// fills the slot counts. A pair whose larger id is at or past
    /// `bound` is computed every time: the directory is rounded up to
    /// whole chunks, so it has slots for a few such pairs.
    #[inline]
    fn memo(&self, a: u32, b: u32, bound: usize, f: impl FnOnce(usize, usize) -> f64) -> f64 {
        let (i, j) = if a <= b { (a as usize, b as usize) } else { (b as usize, a as usize) };
        if j >= bound {
            return f(i, j);
        }
        let k = j * (j + 1) / 2 + i;
        let Some(chunk) = self.chunks.get(k >> CHUNK_BITS) else { return f(i, j) };
        let slot = k & (CHUNK_LEN - 1);
        let hit = chunk.get().map(|slots| f64::from_bits(slots[slot].load(Relaxed)));
        if let Some(v) = hit.filter(|v| !v.is_nan()) {
            return v;
        }
        let v = f(i, j);
        let slots =
            chunk.get_or_init(|| (0..CHUNK_LEN).map(|_| AtomicU64::new(NAN_BITS)).collect());
        if slots[slot].compare_exchange(NAN_BITS, v.to_bits(), Relaxed, Relaxed).is_ok() {
            self.computed.fetch_add(1, Relaxed);
        }
        v
    }

    /// Distinct token pairs computed into this store (diagnostics: the
    /// denominator of the memoization win).
    pub fn distinct_pairs_computed(&self) -> usize {
        self.computed.load(Relaxed)
    }

    /// Number of chunks actually allocated (written at least once).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Bytes committed by the allocated chunks (the store's memory
    /// footprint, modulo the chunk directory itself).
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_chunks() * CHUNK_LEN * std::mem::size_of::<f64>()
    }

    /// Encode the store: the directory up to its last allocated chunk,
    /// then each allocated chunk as its directory index plus its raw
    /// `f64` bit patterns (`NaN` is the "not computed" sentinel and
    /// round-trips, so no separate presence bitmap is needed).
    pub fn write_wire(&self, w: &mut WireWriter) {
        let allocated = || self.chunks.iter().enumerate().filter_map(|(i, c)| Some((i, c.get()?)));
        w.put_len(allocated().last().map_or(0, |(i, _)| i + 1));
        w.put_len(allocated().count());
        for (i, chunk) in allocated() {
            w.put_u32(i as u32);
            for v in chunk.iter() {
                w.put_f64(f64::from_bits(v.load(Relaxed)));
            }
        }
    }

    /// Decode a store written by [`SimStore::write_wire`], reserved for
    /// `vocab`. The computed count is rebuilt by counting non-`NaN`
    /// entries, so a decoded store reports the same
    /// [`SimStore::distinct_pairs_computed`] as the one that was saved;
    /// any `NaN` read is stored as the canonical "not computed" bits.
    ///
    /// `vocab` is the size of the [`TokenTable`] the store indexes. A
    /// directory longer than that table's triangle of pairs needs is
    /// corrupt: [`TokenSimCache::sim`] never writes a slot past it, and
    /// the table only grows. A chunk past [`TOKEN_BOUND`]'s triangle,
    /// saved before the bound, is checked and dropped uncounted.
    pub fn read_wire(r: &mut WireReader<'_>, vocab: usize) -> Result<SimStore, WireError> {
        let dir_len = r.get_len()?;
        let fits = (vocab.saturating_mul(vocab + 1) / 2).div_ceil(CHUNK_LEN);
        if dir_len > fits {
            return Err(r.err(format!(
                "chunk directory of {dir_len} past the {fits} a {vocab}-token table can fill"
            )));
        }
        let mut store = SimStore::new();
        store.reserve(vocab);
        let mut seen = BTreeSet::new();
        let present = r.get_len()?;
        if present > dir_len {
            return Err(r.err(format!("{present} chunks present but directory holds {dir_len}")));
        }
        for _ in 0..present {
            let idx = r.get_u32()? as usize;
            if idx >= dir_len {
                return Err(r.err(format!("chunk index {idx} out of bounds ({dir_len})")));
            }
            if !seen.insert(idx) {
                return Err(r.err(format!("duplicate chunk index {idx}")));
            }
            if idx >= store.chunks.len() {
                r.get_bytes(CHUNK_LEN * std::mem::size_of::<f64>())?;
                continue;
            }
            let mut chunk = Vec::with_capacity(CHUNK_LEN);
            for _ in 0..CHUNK_LEN {
                let v = r.get_f64()?;
                *store.computed.get_mut() += usize::from(!v.is_nan());
                chunk.push(AtomicU64::new(if v.is_nan() { NAN_BITS } else { v.to_bits() }));
            }
            store.chunks[idx] = OnceLock::from(chunk.into_boxed_slice());
        }
        Ok(store)
    }
}

/// Whole-match memo of `sim(t1, t2)` over an interned vocabulary.
///
/// Built after the names (and category keywords) it will compare are
/// interned; [`TokenSimCache::sim`] then computes each distinct token
/// pair at most once and answers every repeat from the backing
/// [`SimStore`]. Filling is lazy — chunk allocation included — so
/// pairs never compared (e.g. same-schema pairs) cost nothing. The
/// cache fills either the table's memo in place ([`TokenSimCache::new`]:
/// a batch session runs every shard over it, DESIGN.md §7) or a store
/// it owns ([`TokenSimCache::with_store`], detached by
/// [`TokenSimCache::into_store`]).
#[derive(Debug)]
pub struct TokenSimCache<'a> {
    table: &'a TokenTable,
    thesaurus: &'a Thesaurus,
    affix: AffixConfig,
    store: Cow<'a, SimStore>,
}

impl<'a> TokenSimCache<'a> {
    /// A cache filling the table's memo ([`TokenTable::store`]) in
    /// place, beside every other cache over the table.
    pub fn new(table: &'a TokenTable, thesaurus: &'a Thesaurus, affix: &AffixConfig) -> Self {
        TokenSimCache { table, thesaurus, affix: *affix, store: Cow::Borrowed(&table.sims) }
    }

    /// A cache resuming from a previously detached [`SimStore`],
    /// reserved for the table. The store must come from a cache over
    /// the same (possibly since grown) table, thesaurus and affix
    /// configuration — triangular indices are only meaningful relative
    /// to the table's ids.
    pub fn with_store(
        table: &'a TokenTable,
        thesaurus: &'a Thesaurus,
        affix: &AffixConfig,
        mut store: SimStore,
    ) -> Self {
        store.reserve(table.len());
        TokenSimCache { table, thesaurus, affix: *affix, store: Cow::Owned(store) }
    }

    /// Detach the backing store, e.g. to persist it across pairs. A
    /// cache over the table's memo returns a copy of it.
    pub fn into_store(self) -> SimStore {
        self.store.into_owned()
    }

    /// `sim(a, b)`, memoized. The first query of a distinct unordered
    /// pair computes [`class_similarity`]; repeats are one array load.
    /// A pair with a token at or past [`TOKEN_BOUND`] is computed every
    /// time.
    #[inline]
    pub fn sim(&mut self, a: TokenId, b: TokenId) -> f64 {
        let entries = &self.table.entries;
        self.store.memo(a.0, b.0, TOKEN_BOUND, |i, j| {
            let ((ca, ta), (cb, tb)) = (&entries[i], &entries[j]);
            class_similarity(*ca, ta, *cb, tb, self.thesaurus, &self.affix)
        })
    }

    /// `ns` of two names through the table's name memo: a hit is one
    /// relaxed load; a miss, or a name at or past [`NAME_BOUND`], runs
    /// `ns`. `(a, b)` and `(b, a)` share a slot, so `ns` must be
    /// symmetric bit for bit.
    #[inline]
    pub fn name_sim(&mut self, a: NameId, b: NameId, ns: impl FnOnce(&mut Self) -> f64) -> f64 {
        let table = self.table;
        table.name_sims.memo(a.0, b.0, NAME_BOUND, |_, _| ns(self))
    }

    /// Vocabulary size `|V|` the cache spans.
    pub fn vocab_size(&self) -> usize {
        self.table.len()
    }

    /// Distinct token pairs actually computed so far (diagnostics: the
    /// denominator of the memoization win).
    pub fn distinct_pairs_computed(&self) -> usize {
        self.store.distinct_pairs_computed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strsim::token_similarity;
    use crate::thesaurus::ThesaurusBuilder;
    use crate::token::TokenType;
    use crate::Normalizer;

    fn tok(s: &str, t: TokenType) -> Token {
        Token::new(s, t)
    }

    #[test]
    fn interning_dedups_by_class_and_text() {
        let mut table = TokenTable::new();
        let a = table.intern_token(&tok("city", TokenType::Content));
        let b = table.intern_token(&tok("city", TokenType::Concept));
        let c = table.intern_token(&tok("city", TokenType::CommonWord));
        // all Word class with equal text: one entry
        assert_eq!(a, b);
        assert_eq!(a, c);
        // a number spelled "city" would be a different entry
        let d = table.intern(SimClass::Number, "city");
        assert_ne!(a, d);
        assert_eq!(table.len(), 2);
        assert_eq!(table.text(a), "city");
        assert_eq!(table.class(d), SimClass::Number);
        assert_eq!(table.lookup(SimClass::Word, "city"), Some(a));
        assert_eq!(table.lookup(SimClass::Word, "street"), None);
    }

    #[test]
    fn approx_bytes_tracks_interned_text() {
        let mut table = TokenTable::new();
        assert_eq!(table.approx_bytes(), 0);
        table.intern(SimClass::Word, "street");
        let one = table.approx_bytes();
        // Text is held twice (entry + index key) plus fixed overheads.
        assert!(one > 2 * "street".len(), "{one}");
        // Re-interning the same token allocates nothing new.
        table.intern(SimClass::Word, "street");
        assert_eq!(table.approx_bytes(), one);
        table.intern(SimClass::Word, "avenue");
        assert!(table.approx_bytes() > one);
    }

    #[test]
    fn intern_name_fills_parallel_ids() {
        let t = ThesaurusBuilder::new().abbreviation("PO", &["purchase", "order"]).build().unwrap();
        let mut name = Normalizer::default().normalize("POLines", &t);
        assert!(name.ids.is_empty());
        let mut table = TokenTable::new();
        table.intern_name(&mut name);
        assert_eq!(name.ids.len(), name.tokens.len());
        for (tokn, &id) in name.tokens.iter().zip(&name.ids) {
            assert_eq!(table.text(id), tokn.text);
            assert_eq!(table.class(id), tokn.ttype.sim_class());
        }
        // idempotent
        let ids = name.ids.clone();
        table.intern_name(&mut name);
        assert_eq!(ids, name.ids);
    }

    #[test]
    fn cached_sim_matches_token_similarity_exactly() {
        let thesaurus = ThesaurusBuilder::new()
            .synonym("bill", "invoice", 1.0)
            .hypernym("customer", "person", 0.8)
            .build()
            .unwrap();
        let affix = AffixConfig::default();
        let tokens = [
            tok("bill", TokenType::Content),
            tok("invoice", TokenType::Content),
            tok("customer", TokenType::Content),
            tok("person", TokenType::Concept),
            tok("postalcode", TokenType::Content),
            tok("zipcode", TokenType::Content),
            tok("4", TokenType::Number),
            tok("3", TokenType::Number),
            tok("#", TokenType::SpecialSymbol),
        ];
        let mut table = TokenTable::new();
        let ids: Vec<TokenId> = tokens.iter().map(|t| table.intern_token(t)).collect();
        let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
        for (t1, &a) in tokens.iter().zip(&ids) {
            for (t2, &b) in tokens.iter().zip(&ids) {
                let direct = token_similarity(t1, t2, &thesaurus, &affix);
                let cached = cache.sim(a, b);
                assert_eq!(direct.to_bits(), cached.to_bits(), "{t1} vs {t2}");
            }
        }
    }

    #[test]
    fn cache_computes_each_distinct_pair_once() {
        let thesaurus = Thesaurus::empty();
        let affix = AffixConfig::default();
        let mut table = TokenTable::new();
        let a = table.intern(SimClass::Word, "street");
        let b = table.intern(SimClass::Word, "straight");
        let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
        assert_eq!(cache.distinct_pairs_computed(), 0);
        let v1 = cache.sim(a, b);
        assert_eq!(cache.distinct_pairs_computed(), 1);
        // repeat and symmetric queries hit the memo
        let v2 = cache.sim(a, b);
        let v3 = cache.sim(b, a);
        assert_eq!(cache.distinct_pairs_computed(), 1);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(v1.to_bits(), v3.to_bits());
        // self-similarity of a word is 1.0
        assert_eq!(cache.sim(a, a), 1.0);
        assert_eq!(cache.vocab_size(), 2);
    }

    #[test]
    fn store_survives_table_growth() {
        let thesaurus = Thesaurus::empty();
        let affix = AffixConfig::default();
        let mut table = TokenTable::new();
        let a = table.intern(SimClass::Word, "street");
        let b = table.intern(SimClass::Word, "straight");
        let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
        let v1 = cache.sim(a, b);
        let store = cache.into_store();
        assert_eq!(store.distinct_pairs_computed(), 1);
        // Grow the vocabulary, re-attach, and check old entries are hits
        // while pairs involving new ids compute fresh.
        let c = table.intern(SimClass::Word, "road");
        let mut cache = TokenSimCache::with_store(&table, &thesaurus, &affix, store);
        assert_eq!(cache.sim(a, b).to_bits(), v1.to_bits());
        assert_eq!(cache.distinct_pairs_computed(), 1);
        let _ = cache.sim(a, c);
        assert_eq!(cache.distinct_pairs_computed(), 2);
    }

    #[test]
    fn table_wire_round_trip_preserves_ids() {
        let t = ThesaurusBuilder::new().abbreviation("PO", &["purchase", "order"]).build().unwrap();
        let mut table = TokenTable::new();
        for (name, class) in
            [("street", SimClass::Word), ("4", SimClass::Number), ("#", SimClass::Special)]
        {
            table.intern(class, name);
        }
        let mut name = Normalizer::default().normalize("POLines", &t);
        table.intern_name(&mut name);
        let mut w = cupid_model::WireWriter::new();
        table.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = cupid_model::WireReader::new(&bytes);
        let back = TokenTable::read_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), table.len());
        for (id, class, text) in table.entries() {
            assert_eq!(back.class(id), class);
            assert_eq!(back.text(id), text);
            assert_eq!(back.lookup(class, text), Some(id));
        }
        // name ids round-trip against the decoded table
        let mut w = cupid_model::WireWriter::new();
        name.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = cupid_model::WireReader::new(&bytes);
        let name_back = NormalizedName::read_wire(&mut r, back.len()).unwrap();
        assert_eq!(name_back, name);
        assert_eq!(name_back.ids, name.ids);
    }

    #[test]
    fn store_wire_round_trip_preserves_values_and_count() {
        let thesaurus = Thesaurus::empty();
        let affix = AffixConfig::default();
        let mut table = TokenTable::new();
        let ids: Vec<TokenId> = ["street", "straight", "road", "lane"]
            .iter()
            .map(|w| table.intern(SimClass::Word, w))
            .collect();
        let mut cache = TokenSimCache::new(&table, &thesaurus, &affix);
        let v01 = cache.sim(ids[0], ids[1]);
        let v23 = cache.sim(ids[2], ids[3]);
        let store = cache.into_store();
        let mut w = cupid_model::WireWriter::new();
        store.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = cupid_model::WireReader::new(&bytes);
        let back = SimStore::read_wire(&mut r, table.len()).unwrap();
        r.finish().unwrap();
        assert_eq!(back.distinct_pairs_computed(), store.distinct_pairs_computed());
        assert_eq!(back.allocated_chunks(), store.allocated_chunks());
        assert_eq!(back.allocated_bytes(), store.allocated_bytes());
        let mut cache = TokenSimCache::with_store(&table, &thesaurus, &affix, back);
        assert_eq!(cache.sim(ids[0], ids[1]).to_bits(), v01.to_bits());
        assert_eq!(cache.sim(ids[2], ids[3]).to_bits(), v23.to_bits());
        assert_eq!(cache.distinct_pairs_computed(), 2, "round-tripped values must be hits");
    }

    #[test]
    fn store_wire_rejects_corrupt_directories() {
        let mut store = SimStore::new();
        store.reserve(3);
        store.memo(0, 2, TOKEN_BOUND, |_, _| 0.25);
        let mut w = cupid_model::WireWriter::new();
        store.write_wire(&mut w);
        let mut bytes = w.into_bytes();
        // chunk index out of bounds
        bytes[8] = 0xfe;
        let mut r = cupid_model::WireReader::new(&bytes);
        assert!(SimStore::read_wire(&mut r, 3).is_err());
    }

    #[test]
    fn store_chunks_allocate_lazily() {
        // Touch a high triangular index, 285·286/2 + 212 = 10·4,096 + 7;
        // only its chunk materializes, and only once the directory is
        // reserved past it.
        let mut store = SimStore::new();
        let fill = |store: &SimStore, v| store.memo(212, 285, TOKEN_BOUND, |_, _| v);
        assert_eq!(fill(&store, 0.5), 0.5);
        assert_eq!(fill(&store, 0.25), 0.25, "a slot past the directory is not memoized");
        store.reserve(300); // 45,150 pairs: 12 chunks
        assert_eq!(fill(&store, 0.5), 0.5);
        assert_eq!(fill(&store, 0.25), 0.5, "a hit");
        assert_eq!(store.allocated_chunks(), 1, "untouched chunks stay unallocated");
        assert_eq!(store.distinct_pairs_computed(), 1, "only the filling write counts");
    }
}
