//! Linguistic matching (§5): name similarity and the `lsim` table.
//!
//! The three steps — normalization, categorization, comparison — produce
//! a table of linguistic similarity coefficients between elements of the
//! two schemas. *"The similarity is assumed to be zero for schema
//! elements that do not belong to any compatible categories."*
//!
//! Two engines compute the same table:
//!
//! * [`analyze`] — the production path. Both schemas' names (and the
//!   category keywords) are interned into one [`TokenTable`]; a
//!   [`TokenSimCache`] then memoizes `sim(t1, t2)` per distinct token
//!   pair, so `ns` over element pairs reduces to table lookups over id
//!   slices (DESIGN.md §6).
//! * [`analyze_naive`] — the retained reference path, a direct
//!   transliteration of §5 that recomputes token similarity per element
//!   pair. It is the oracle the equivalence suite
//!   (`tests/linguistic_equivalence.rs`) checks the interned engine
//!   against: same `lsim` bits, same counters, across randomized
//!   schemas and thesauri.

use cupid_lexical::strsim::{token_similarity, AffixConfig};
use cupid_lexical::{
    token_id_from_wire, NameId, NormalizedName, Normalizer, Thesaurus, Token, TokenId,
    TokenSimCache, TokenTable, TokenType,
};
use cupid_model::{ElementId, Schema, WireError, WireReader, WireWriter};

use crate::categories::{categorize, is_linguistically_comparable, SchemaCategories};
use crate::config::{CupidConfig, TokenTypeWeights};
use crate::simmatrix::SimMatrix;

/// Name similarity of two token *sets* (§5.2):
///
/// ```text
/// ns(T1,T2) = ( Σ_{t1∈T1} max_{t2∈T2} sim(t1,t2)
///             + Σ_{t2∈T2} max_{t1∈T1} sim(t1,t2) ) / (|T1| + |T2|)
/// ```
pub fn ns_token_sets(
    t1: &[&Token],
    t2: &[&Token],
    thesaurus: &Thesaurus,
    affix: &AffixConfig,
) -> f64 {
    if t1.is_empty() && t2.is_empty() {
        return 0.0;
    }
    let best_against = |t: &Token, others: &[&Token]| -> f64 {
        others.iter().map(|o| token_similarity(t, o, thesaurus, affix)).fold(0.0, f64::max)
    };
    let sum1: f64 = t1.iter().map(|t| best_against(t, t2)).sum();
    let sum2: f64 = t2.iter().map(|t| best_against(t, t1)).sum();
    (sum1 + sum2) / (t1.len() + t2.len()) as f64
}

/// Element-level name similarity (§5.3): a weighted mean of the
/// per-token-type name similarities, weighted by the configured token
/// type weight and by the token mass of each type:
///
/// ```text
/// ns(m1,m2) = Σ_i  w_i · ns(T1i,T2i) · (|T1i|+|T2i|)
///           / Σ_i  w_i · (|T1i|+|T2i|)
/// ```
///
/// This matches the paper's prose — content and concept tokens weigh more
/// than numbers and common words — and degenerates to plain `ns` when one
/// token type is present.
pub fn ns_elements(
    m1: &NormalizedName,
    m2: &NormalizedName,
    thesaurus: &Thesaurus,
    weights: &TokenTypeWeights,
    affix: &AffixConfig,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for ttype in TokenType::ALL {
        let w = weights.weight(ttype);
        if w == 0.0 {
            continue;
        }
        let t1: Vec<&Token> = m1.tokens_of(ttype).collect();
        let t2: Vec<&Token> = m2.tokens_of(ttype).collect();
        let mass = (t1.len() + t2.len()) as f64;
        if mass == 0.0 {
            continue;
        }
        num += w * ns_token_sets(&t1, &t2, thesaurus, affix) * mass;
        den += w * mass;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// [`ns_token_sets`] over interned token ids: the identical formula and
/// accumulation order, with every `sim(t1, t2)` answered by the memo.
pub fn ns_token_ids(t1: &[TokenId], t2: &[TokenId], cache: &mut TokenSimCache<'_>) -> f64 {
    if t1.is_empty() && t2.is_empty() {
        return 0.0;
    }
    let mut sum1 = 0.0;
    for &a in t1 {
        let mut best = 0.0f64;
        for &b in t2 {
            best = best.max(cache.sim(a, b));
        }
        sum1 += best;
    }
    let mut sum2 = 0.0;
    for &b in t2 {
        let mut best = 0.0f64;
        for &a in t1 {
            best = best.max(cache.sim(a, b));
        }
        sum2 += best;
    }
    (sum1 + sum2) / (t1.len() + t2.len()) as f64
}

/// One element's interned token ids, grouped by token type in
/// [`TokenType::ALL`] order (original token order preserved within each
/// type). Precomputed once per element, this kills the per-pair
/// `Vec<&Token>` collection [`ns_elements`] pays for every comparison.
#[derive(Debug, Clone)]
pub struct TypedIds {
    ids: Vec<TokenId>,
    /// `starts[k]..starts[k + 1]` is the id range of `TokenType::ALL[k]`.
    starts: [u32; 6],
}

impl TypedIds {
    /// Group an interned name's ids by token type. The name must have
    /// been interned ([`TokenTable::intern_name`]) first.
    pub fn of(name: &NormalizedName) -> TypedIds {
        debug_assert_eq!(name.ids.len(), name.tokens.len(), "name must be interned first");
        let mut ids = Vec::with_capacity(name.ids.len());
        let mut starts = [0u32; 6];
        for (k, ttype) in TokenType::ALL.iter().enumerate() {
            starts[k] = ids.len() as u32;
            for (t, &id) in name.tokens.iter().zip(&name.ids) {
                if t.ttype == *ttype {
                    ids.push(id);
                }
            }
        }
        starts[5] = ids.len() as u32;
        TypedIds { ids, starts }
    }

    #[inline]
    pub(crate) fn of_type(&self, k: usize) -> &[TokenId] {
        &self.ids[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// Encode the grouped id slices (snapshot support; DESIGN.md §8).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_list(&self.ids, |w, id| w.put_u32(id.index() as u32));
        for s in self.starts {
            w.put_u32(s);
        }
    }

    /// Decode grouped id slices written by [`TypedIds::write_wire`].
    pub fn read_wire(r: &mut WireReader<'_>, vocab: usize) -> Result<TypedIds, WireError> {
        let ids = r.get_list(|r| r.get_u32().and_then(|raw| token_id_from_wire(r, raw, vocab)))?;
        let n = ids.len();
        let mut starts = [0u32; 6];
        for s in starts.iter_mut() {
            *s = r.get_u32()?;
        }
        let monotone = starts.windows(2).all(|w| w[0] <= w[1]);
        if !monotone || starts[0] != 0 || starts[5] as usize != n {
            return Err(r.err(format!("invalid type-group offsets {starts:?} for {n} ids")));
        }
        Ok(TypedIds { ids, starts })
    }
}

/// [`ns_elements`] over precomputed per-type id slices: the identical
/// weighted mean, with token-set similarities answered by the memo.
///
/// Symmetric bit for bit, so one name-memo slot serves a pair and its
/// mirror: both orders run the same `sim` queries (the memo is a
/// triangle) in the same order, `max` is exact, and IEEE addition
/// commutes, so `sum1 + sum2` equals `sum2 + sum1`.
pub fn ns_elements_ids(
    a: &TypedIds,
    b: &TypedIds,
    weights: &TokenTypeWeights,
    cache: &mut TokenSimCache<'_>,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for ttype in TokenType::ALL {
        let w = weights.weight(ttype);
        if w == 0.0 {
            continue;
        }
        let t1 = a.of_type(ttype.index());
        let t2 = b.of_type(ttype.index());
        let mass = (t1.len() + t2.len()) as f64;
        if mass == 0.0 {
            continue;
        }
        num += w * ns_token_ids(t1, t2, cache) * mass;
        den += w * mass;
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `ns` of element `i1` of `p1` and element `i2` of `p2` through the name
/// memo ([`TokenSimCache::name_sim`]).
pub(crate) fn element_ns(
    p1: &SchemaLing,
    i1: usize,
    p2: &SchemaLing,
    i2: usize,
    weights: &TokenTypeWeights,
    cache: &mut TokenSimCache<'_>,
) -> f64 {
    cache.name_sim(p1.name_ids[i1], p2.name_ids[i2], |cache| {
        ns_elements_ids(&p1.typed[i1], &p2.typed[i2], weights, cache)
    })
}

/// Intern each element's name key, its grouped token ids then the six
/// group offsets, into `table`, building every key in one buffer.
fn intern_names(typed: &[TypedIds], table: &mut TokenTable) -> Vec<NameId> {
    let mut key = Vec::new();
    typed
        .iter()
        .map(|t| {
            key.clear();
            key.extend(t.ids.iter().map(|id| id.index() as u32));
            key.extend_from_slice(&t.starts);
            table.intern_key(&key)
        })
        .collect()
}

/// Comparison-relevant (non-eliminated) interned ids of a name, in token
/// order — the id-slice counterpart of
/// [`NormalizedName::comparable_tokens`].
fn comparable_ids(name: &NormalizedName) -> Vec<TokenId> {
    debug_assert_eq!(name.ids.len(), name.tokens.len(), "name must be interned first");
    name.tokens.iter().zip(&name.ids).filter(|(t, _)| !t.is_ignored()).map(|(_, &id)| id).collect()
}

/// Everything the linguistic phase derives from *one* schema before any
/// interning: normalized names, categories, and comparability flags.
///
/// This is the thread-safe half of per-schema precompute — it touches no
/// shared state, so a batch session can run it for many schemas in
/// parallel and then intern the results sequentially into one session
/// [`TokenTable`] ([`RawSchemaLing::intern`]; DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct RawSchemaLing {
    names: Vec<NormalizedName>,
    categories: SchemaCategories,
    comparable: Vec<bool>,
}

impl RawSchemaLing {
    /// Normalize and categorize one schema (no interning).
    pub fn of(schema: &Schema, thesaurus: &Thesaurus) -> Self {
        let normalizer = Normalizer::default();
        let names: Vec<NormalizedName> =
            schema.iter().map(|(_, e)| normalizer.normalize(&e.name, thesaurus)).collect();
        let categories = categorize(schema, &names);
        let comparable: Vec<bool> =
            schema.iter().map(|(e, _)| is_linguistically_comparable(schema, e)).collect();
        RawSchemaLing { names, categories, comparable }
    }

    /// Intern every name, name key and category keyword into `table`,
    /// producing the pair-ready [`SchemaLing`]. Interning order only
    /// assigns ids; similarity values depend on `(class, text)` alone,
    /// so schemas interned in any order produce bit-identical `lsim`
    /// tables.
    pub fn intern(mut self, table: &mut TokenTable) -> SchemaLing {
        for n in self.names.iter_mut() {
            table.intern_name(n);
        }
        let typed: Vec<TypedIds> = self.names.iter().map(TypedIds::of).collect();
        let name_ids = intern_names(&typed, table);
        // Container keywords are clones of element names; concept and
        // data-type keywords are freshly built. Intern them all
        // unconditionally (idempotent, and ids from any other table
        // would be silently wrong).
        for c in self.categories.categories.iter_mut() {
            table.intern_name(&mut c.keywords);
        }
        let keyword_ids: Vec<Vec<TokenId>> =
            self.categories.categories.iter().map(|c| comparable_ids(&c.keywords)).collect();
        SchemaLing {
            names: self.names,
            categories: self.categories,
            typed,
            name_ids,
            keyword_ids,
            comparable: self.comparable,
        }
    }
}

/// One schema's complete linguistic precompute, interned into a (shared)
/// [`TokenTable`]: the per-schema half of the split `analyze`. Two of
/// these plus a [`TokenSimCache`] over the same table are all
/// [`pair_lsim`] needs — no re-normalization, re-categorization or
/// re-interning per pair (DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct SchemaLing {
    /// Normalized names by element index.
    pub names: Vec<NormalizedName>,
    /// The schema's categories (§5.2).
    pub categories: SchemaCategories,
    /// Per-element interned ids grouped by token type.
    typed: Vec<TypedIds>,
    /// Per-element name id, the name memo's key (interned on decode).
    name_ids: Vec<NameId>,
    /// Per-category comparable keyword ids.
    keyword_ids: Vec<Vec<TokenId>>,
    /// Per-element: participates in linguistic matching (§8.2).
    comparable: Vec<bool>,
}

impl SchemaLing {
    /// Precompute one schema in one step (normalize + categorize +
    /// intern into `table`).
    pub fn prepare(schema: &Schema, thesaurus: &Thesaurus, table: &mut TokenTable) -> Self {
        RawSchemaLing::of(schema, thesaurus).intern(table)
    }

    /// Number of schema elements covered.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the schema had no elements.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Per-type interned ids of element `i` (explanation capture).
    pub(crate) fn typed(&self, i: usize) -> &TypedIds {
        &self.typed[i]
    }

    /// Whether element `i` participates in linguistic matching.
    pub(crate) fn is_comparable(&self, i: usize) -> bool {
        self.comparable[i]
    }

    /// Name id of element `i`.
    pub fn name_id(&self, i: usize) -> NameId {
        self.name_ids[i]
    }

    /// Encode the complete precompute verbatim — names, categories,
    /// per-type id slices, keyword ids, comparability flags. Only name
    /// ids, which key the name memo, are derived again on decode, so a
    /// loaded `SchemaLing` drives
    /// [`pair_lsim`] through the exact same id slices (and therefore
    /// the exact same float operations) as the one that was saved —
    /// the heart of the snapshot bit-identity argument (DESIGN.md §8).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_list(&self.names, |w, n| n.write_wire(w));
        self.categories.write_wire(w);
        for t in &self.typed {
            t.write_wire(w);
        }
        w.put_list(&self.keyword_ids, |w, ids| {
            w.put_list(ids, |w, id| w.put_u32(id.index() as u32));
        });
        for &c in &self.comparable {
            w.put_bool(c);
        }
    }

    /// Decode a precompute written by [`SchemaLing::write_wire`]. Ids
    /// are bounds-checked against `table`, the snapshot's decoded
    /// [`TokenTable`], and the element names are interned into it.
    pub fn read_wire(
        r: &mut WireReader<'_>,
        table: &mut TokenTable,
    ) -> Result<SchemaLing, WireError> {
        let vocab = table.len();
        let names = r.get_list(|r| NormalizedName::read_wire(r, vocab))?;
        let n = names.len();
        let categories = SchemaCategories::read_wire(r, vocab)?;
        if categories.element_categories.len() != n {
            return Err(r.err(format!(
                "category index covers {} elements, schema has {n}",
                categories.element_categories.len()
            )));
        }
        let mut typed = Vec::with_capacity(n);
        for _ in 0..n {
            typed.push(TypedIds::read_wire(r, vocab)?);
        }
        let keyword_ids = r.get_list(|r| {
            r.get_list(|r| r.get_u32().and_then(|raw| token_id_from_wire(r, raw, vocab)))
        })?;
        if keyword_ids.len() != categories.categories.len() {
            return Err(r.err(format!(
                "{} keyword id lists for {} categories",
                keyword_ids.len(),
                categories.categories.len()
            )));
        }
        let mut comparable = Vec::with_capacity(n);
        for _ in 0..n {
            comparable.push(r.get_bool()?);
        }
        let name_ids = intern_names(&typed, table);
        Ok(SchemaLing { names, categories, typed, name_ids, keyword_ids, comparable })
    }
}

/// The per-pair output of [`pair_lsim`]: the `lsim` table plus the
/// pruning counters, without the per-schema artifacts (those live in the
/// two [`SchemaLing`]s and are shared across pairs).
#[derive(Debug, Clone)]
pub struct PairLsim {
    /// The linguistic similarity table.
    pub lsim: LsimTable,
    /// Per element pair, the best compatible-category keyword similarity
    /// that scaled `ns` into `lsim` (0 without a compatible category);
    /// explanations report it.
    pub(crate) category_scale: SimMatrix,
    /// Number of compatible category pairs found.
    pub compatible_category_pairs: usize,
    /// Number of element pairs actually compared (pruning diagnostics).
    pub compared_pairs: usize,
    /// Total element pairs (`|S1| × |S2|`).
    pub total_pairs: usize,
}

/// The per-pair half of the split linguistic phase: combine two prepared
/// schemas into an `lsim` table. Identical formulas and loop order to
/// [`analyze`] (which is implemented on top of this), so the output is
/// bit-identical to the single-pair path no matter how the inputs were
/// prepared or which (warm or cold) cache is supplied — `sim` values
/// depend only on token content, never on cache state.
pub fn pair_lsim(
    p1: &SchemaLing,
    p2: &SchemaLing,
    cfg: &CupidConfig,
    cache: &mut TokenSimCache<'_>,
) -> PairLsim {
    let (n1, n2) = (p1.len(), p2.len());
    // Compatible category pairs: keyword sets name-similar above th_ns.
    // The comparison uses the plain (unweighted) set formula over the
    // comparable keyword tokens.
    let mut compatible_pairs = 0usize;
    // scale[e1][e2] = max ns(c1,c2) over compatible category pairs.
    let mut scale = SimMatrix::zeros(n1, n2);
    for (c1, k1) in p1.categories.categories.iter().zip(&p1.keyword_ids) {
        for (c2, k2) in p2.categories.categories.iter().zip(&p2.keyword_ids) {
            let ns_k = ns_token_ids(k1, k2, cache);
            if ns_k <= cfg.th_ns {
                continue;
            }
            compatible_pairs += 1;
            for &m1 in &c1.members {
                for &m2 in &c2.members {
                    if ns_k > scale.get(m1.index(), m2.index()) {
                        scale.set(m1.index(), m2.index(), ns_k);
                    }
                }
            }
        }
    }

    // lsim = ns(m1,m2) × max category ns, for pairs with any compatible
    // category; zero elsewhere. Element ids are dense and in arena
    // order ([`Schema::iter`]), so iterating indices is iterating
    // elements.
    let mut lsim = LsimTable::zeros(n1, n2);
    let mut compared = 0usize;
    for i1 in 0..n1 {
        if !p1.comparable[i1] {
            continue;
        }
        for i2 in 0..n2 {
            if !p2.comparable[i2] {
                continue;
            }
            let sc = scale.get(i1, i2);
            if sc <= 0.0 {
                continue;
            }
            compared += 1;
            let ns = element_ns(p1, i1, p2, i2, &cfg.token_weights, cache);
            lsim.set(ElementId::from_index(i1), ElementId::from_index(i2), ns * sc);
        }
    }

    PairLsim {
        lsim,
        category_scale: scale,
        compatible_category_pairs: compatible_pairs,
        compared_pairs: compared,
        total_pairs: n1 * n2,
    }
}

/// The `lsim` lookup table, indexed by element ids of the two schemas.
#[derive(Debug, Clone)]
pub struct LsimTable {
    m: SimMatrix,
}

impl LsimTable {
    /// A zero table for `n1 × n2` elements.
    pub fn zeros(n1: usize, n2: usize) -> Self {
        LsimTable { m: SimMatrix::zeros(n1, n2) }
    }

    /// `lsim` of two elements.
    #[inline]
    pub fn get(&self, e1: ElementId, e2: ElementId) -> f64 {
        self.m.get(e1.index(), e2.index())
    }

    /// Override an entry (used for initial mappings, §8.4).
    pub fn set(&mut self, e1: ElementId, e2: ElementId, v: f64) {
        self.m.set(e1.index(), e2.index(), v.clamp(0.0, 1.0));
    }

    /// Underlying matrix (diagnostics).
    pub fn matrix(&self) -> &SimMatrix {
        &self.m
    }
}

/// The full output of the linguistic phase, kept for diagnostics and for
/// the evaluation harness.
#[derive(Debug, Clone)]
pub struct LinguisticAnalysis {
    /// Normalized names of schema 1's elements (by element index).
    pub names1: Vec<NormalizedName>,
    /// Normalized names of schema 2's elements.
    pub names2: Vec<NormalizedName>,
    /// Categories of schema 1.
    pub categories1: SchemaCategories,
    /// Categories of schema 2.
    pub categories2: SchemaCategories,
    /// The linguistic similarity table.
    pub lsim: LsimTable,
    /// Number of compatible category pairs found.
    pub compatible_category_pairs: usize,
    /// Number of element pairs actually compared (pruning diagnostics).
    pub compared_pairs: usize,
    /// Total element pairs (`|S1| × |S2|`), for pruning ratio reporting.
    pub total_pairs: usize,
    /// Distinct interned tokens across both schemas and the category
    /// keywords (`|V|`). 0 when produced by [`analyze_naive`], which
    /// does not intern.
    pub vocab_size: usize,
    /// Distinct token pairs whose similarity was actually computed by
    /// the memo — every further token comparison was a lookup. 0 when
    /// produced by [`analyze_naive`].
    pub distinct_token_pairs: usize,
}

impl LinguisticAnalysis {
    /// Fraction of element pairs skipped thanks to categorization.
    pub fn pruning_ratio(&self) -> f64 {
        if self.total_pairs == 0 {
            return 0.0;
        }
        1.0 - self.compared_pairs as f64 / self.total_pairs as f64
    }
}

/// Run the linguistic phase over two schemas (the interned engine).
///
/// Implemented as the split engine run once: both schemas are prepared
/// ([`SchemaLing::prepare`] — normalization, categorization, interning
/// into one [`TokenTable`], per-type id slices per element) and combined
/// ([`pair_lsim`]), with every `sim(t1, t2)` answered through a
/// [`TokenSimCache`] that computes each distinct token pair exactly
/// once. Produces bit-identical output to [`analyze_naive`]; batch
/// sessions ([`crate::session`]) call the same two halves but reuse the
/// per-schema half across pairs.
pub fn analyze(
    s1: &Schema,
    s2: &Schema,
    thesaurus: &Thesaurus,
    cfg: &CupidConfig,
) -> LinguisticAnalysis {
    let mut table = TokenTable::new();
    let p1 = SchemaLing::prepare(s1, thesaurus, &mut table);
    let p2 = SchemaLing::prepare(s2, thesaurus, &mut table);
    let mut cache = TokenSimCache::new(&table, thesaurus, &cfg.affix);
    let pair = pair_lsim(&p1, &p2, cfg, &mut cache);
    LinguisticAnalysis {
        total_pairs: pair.total_pairs,
        vocab_size: cache.vocab_size(),
        distinct_token_pairs: cache.distinct_pairs_computed(),
        names1: p1.names,
        names2: p2.names,
        categories1: p1.categories,
        categories2: p2.categories,
        lsim: pair.lsim,
        compatible_category_pairs: pair.compatible_category_pairs,
        compared_pairs: pair.compared_pairs,
    }
}

/// The naive reference engine: §5 transliterated, re-running string
/// token similarity for every element pair. Kept (not dead code) as the
/// oracle for the interned engine — `tests/linguistic_equivalence.rs`
/// asserts [`analyze`] reproduces its `lsim` bits and counters exactly.
pub fn analyze_naive(
    s1: &Schema,
    s2: &Schema,
    thesaurus: &Thesaurus,
    cfg: &CupidConfig,
) -> LinguisticAnalysis {
    let normalizer = Normalizer::default();
    let names1: Vec<NormalizedName> =
        s1.iter().map(|(_, e)| normalizer.normalize(&e.name, thesaurus)).collect();
    let names2: Vec<NormalizedName> =
        s2.iter().map(|(_, e)| normalizer.normalize(&e.name, thesaurus)).collect();
    let categories1 = categorize(s1, &names1);
    let categories2 = categorize(s2, &names2);

    // Compatible category pairs: keyword sets name-similar above th_ns.
    // The comparison uses the plain (unweighted) set formula over the
    // comparable keyword tokens.
    let mut compatible_pairs = 0usize;
    // scale[e1][e2] = max ns(c1,c2) over compatible category pairs.
    let mut scale = SimMatrix::zeros(s1.len(), s2.len());
    for c1 in &categories1.categories {
        let k1: Vec<&Token> = c1.keywords.comparable_tokens().collect();
        for c2 in &categories2.categories {
            let k2: Vec<&Token> = c2.keywords.comparable_tokens().collect();
            let ns_k = ns_token_sets(&k1, &k2, thesaurus, &cfg.affix);
            if ns_k <= cfg.th_ns {
                continue;
            }
            compatible_pairs += 1;
            for &m1 in &c1.members {
                for &m2 in &c2.members {
                    if ns_k > scale.get(m1.index(), m2.index()) {
                        scale.set(m1.index(), m2.index(), ns_k);
                    }
                }
            }
        }
    }

    // lsim = ns(m1,m2) × max category ns, for pairs with any compatible
    // category; zero elsewhere.
    let mut lsim = LsimTable::zeros(s1.len(), s2.len());
    let mut compared = 0usize;
    for (e1, _) in s1.iter() {
        if !is_linguistically_comparable(s1, e1) {
            continue;
        }
        for (e2, _) in s2.iter() {
            if !is_linguistically_comparable(s2, e2) {
                continue;
            }
            let sc = scale.get(e1.index(), e2.index());
            if sc <= 0.0 {
                continue;
            }
            compared += 1;
            let ns = ns_elements(
                &names1[e1.index()],
                &names2[e2.index()],
                thesaurus,
                &cfg.token_weights,
                &cfg.affix,
            );
            lsim.set(e1, e2, ns * sc);
        }
    }

    LinguisticAnalysis {
        total_pairs: s1.len() * s2.len(),
        vocab_size: 0,
        distinct_token_pairs: 0,
        names1,
        names2,
        categories1,
        categories2,
        lsim,
        compatible_category_pairs: compatible_pairs,
        compared_pairs: compared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_lexical::ThesaurusBuilder;
    use cupid_model::{DataType, ElementKind, SchemaBuilder};

    fn cfg() -> CupidConfig {
        CupidConfig::default()
    }

    fn paper_thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("UOM", &["unit", "of", "measure"])
            .abbreviation("PO", &["purchase", "order"])
            .abbreviation("Qty", &["quantity"])
            .abbreviation("Num", &["number"])
            .synonym("Invoice", "Bill", 1.0)
            .synonym("Ship", "Deliver", 1.0)
            .build()
            .unwrap()
    }

    fn normalize(name: &str, t: &Thesaurus) -> NormalizedName {
        Normalizer::default().normalize(name, t)
    }

    #[test]
    fn ns_identical_names_is_one() {
        let t = Thesaurus::with_default_stopwords();
        let n1 = normalize("City", &t);
        let n2 = normalize("city", &t);
        let v = ns_elements(&n1, &n2, &t, &TokenTypeWeights::default(), &AffixConfig::default());
        assert_eq!(v, 1.0);
    }

    #[test]
    fn ns_qty_vs_quantity_via_expansion() {
        let t = paper_thesaurus();
        let n1 = normalize("Qty", &t);
        let n2 = normalize("Quantity", &t);
        let v = ns_elements(&n1, &n2, &t, &TokenTypeWeights::default(), &AffixConfig::default());
        assert_eq!(v, 1.0);
    }

    #[test]
    fn ns_pobillto_vs_invoiceto() {
        // {purchase, order, bill} vs {invoice} (common word "to" weight 0):
        // bill↔invoice = 1.0, purchase/order unmatched → (1+1)/4 = 0.5.
        let t = paper_thesaurus();
        let n1 = normalize("POBillTo", &t);
        let n2 = normalize("InvoiceTo", &t);
        let v = ns_elements(&n1, &n2, &t, &TokenTypeWeights::default(), &AffixConfig::default());
        assert!((v - 0.5).abs() < 1e-9, "{v}");
    }

    #[test]
    fn ns_deliverto_vs_pobillto_zero() {
        let t = paper_thesaurus();
        let n1 = normalize("POBillTo", &t);
        let n2 = normalize("DeliverTo", &t);
        let v = ns_elements(&n1, &n2, &t, &TokenTypeWeights::default(), &AffixConfig::default());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn ns_token_sets_empty_cases() {
        let t = Thesaurus::empty();
        let a = AffixConfig::default();
        assert_eq!(ns_token_sets(&[], &[], &t, &a), 0.0);
        let tok = Token::new("x", TokenType::Content);
        assert_eq!(ns_token_sets(&[&tok], &[], &t, &a), 0.0);
    }

    fn customer_schema(name: &str, suffix: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        b.atomic(c, format!("CustomerNumber{suffix}"), ElementKind::Attribute, DataType::Int);
        b.atomic(c, format!("Name{suffix}"), ElementKind::Attribute, DataType::String);
        b.atomic(c, format!("Address{suffix}"), ElementKind::Attribute, DataType::String);
        b.build().unwrap()
    }

    #[test]
    fn analyze_identical_schemas_diagonal_is_one() {
        let s1 = customer_schema("Schema1", "");
        let s2 = customer_schema("Schema2", "");
        let t = Thesaurus::with_default_stopwords();
        let a = analyze(&s1, &s2, &t, &cfg());
        let name1 = s1.find("Name").unwrap();
        let name2 = s2.find("Name").unwrap();
        assert_eq!(a.lsim.get(name1, name2), 1.0);
        let addr2 = s2.find("Address").unwrap();
        // Name vs Address share the container and text categories but
        // have no token overlap.
        assert_eq!(a.lsim.get(name1, addr2), 0.0);
    }

    #[test]
    fn analyze_prefixed_names_still_similar() {
        // §9.1 test 3: Address → StreetAddress, Name → CustomerName.
        let s1 = customer_schema("Schema1", "");
        let mut b = SchemaBuilder::new("Schema2");
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        b.atomic(c, "CustomerNumber", ElementKind::Attribute, DataType::Int);
        b.atomic(c, "CustomerName", ElementKind::Attribute, DataType::String);
        b.atomic(c, "StreetAddress", ElementKind::Attribute, DataType::String);
        let s2 = b.build().unwrap();
        let t = Thesaurus::with_default_stopwords();
        let a = analyze(&s1, &s2, &t, &cfg());
        let name1 = s1.find("Name").unwrap();
        let cname2 = s2.find("CustomerName").unwrap();
        // {name} vs {customer, name}: (1 + (1+0))/3 = 2/3.
        let v = a.lsim.get(name1, cname2);
        assert!(v > 0.6, "lsim(Name, CustomerName) = {v}");
        let addr1 = s1.find("Address").unwrap();
        let saddr2 = s2.find("StreetAddress").unwrap();
        assert!(a.lsim.get(addr1, saddr2) > 0.6);
    }

    #[test]
    fn analyze_prunes_incompatible_categories() {
        let s1 = customer_schema("Schema1", "");
        let s2 = customer_schema("Schema2", "");
        let t = Thesaurus::with_default_stopwords();
        let a = analyze(&s1, &s2, &t, &cfg());
        assert!(a.compared_pairs < a.total_pairs);
        assert!(a.pruning_ratio() > 0.0);
        assert!(a.compatible_category_pairs > 0);
    }

    #[test]
    fn lsim_scaled_by_category_similarity() {
        // Same leaf names under differently-named but related containers.
        let mut b1 = SchemaBuilder::new("S1");
        let po = b1.structured(b1.root(), "POBillTo", ElementKind::XmlElement);
        b1.atomic(po, "City", ElementKind::XmlElement, DataType::String);
        let s1 = b1.build().unwrap();
        let mut b2 = SchemaBuilder::new("S2");
        let inv = b2.structured(b2.root(), "InvoiceTo", ElementKind::XmlElement);
        b2.atomic(inv, "City", ElementKind::XmlElement, DataType::String);
        let s2 = b2.build().unwrap();
        let t = paper_thesaurus();
        let a = analyze(&s1, &s2, &t, &cfg());
        let c1 = s1.find("City").unwrap();
        let c2 = s2.find("City").unwrap();
        // ns(City, City) = 1, categories: text/text compatible at 1.0 →
        // lsim = 1.
        assert_eq!(a.lsim.get(c1, c2), 1.0);
    }

    #[test]
    fn interned_engine_matches_naive_reference() {
        // Thesaurus-heavy pair exercising expansion, synonyms, concepts
        // and the affix fallback; the dedicated proptest suite
        // (tests/linguistic_equivalence.rs) covers randomized inputs.
        let s1 = customer_schema("Schema1", "");
        let mut b = SchemaBuilder::new("Schema2");
        let c = b.structured(b.root(), "Client", ElementKind::Class);
        b.atomic(c, "CustomerNum", ElementKind::Attribute, DataType::Int);
        b.atomic(c, "CustomerName", ElementKind::Attribute, DataType::String);
        b.atomic(c, "StreetAddress", ElementKind::Attribute, DataType::String);
        let s2 = b.build().unwrap();
        let t = paper_thesaurus();
        let fast = analyze(&s1, &s2, &t, &cfg());
        let naive = analyze_naive(&s1, &s2, &t, &cfg());
        assert_eq!(fast.lsim.matrix().max_abs_diff(naive.lsim.matrix()), 0.0);
        assert_eq!(fast.compared_pairs, naive.compared_pairs);
        assert_eq!(fast.compatible_category_pairs, naive.compatible_category_pairs);
        // only the interned engine reports memo diagnostics
        assert!(fast.vocab_size > 0);
        assert!(fast.distinct_token_pairs > 0);
        assert_eq!(naive.vocab_size, 0);
    }

    #[test]
    fn ns_token_ids_matches_ns_token_sets() {
        let t = paper_thesaurus();
        let affix = AffixConfig::default();
        let mk = |s: &str, ty: TokenType| Token::new(s, ty);
        let toks1 = [mk("purchase", TokenType::Content), mk("bill", TokenType::Content)];
        let toks2 = [mk("invoice", TokenType::Content), mk("4", TokenType::Number)];
        let refs1: Vec<&Token> = toks1.iter().collect();
        let refs2: Vec<&Token> = toks2.iter().collect();
        let direct = ns_token_sets(&refs1, &refs2, &t, &affix);
        let mut table = TokenTable::new();
        let ids1: Vec<TokenId> = toks1.iter().map(|tk| table.intern_token(tk)).collect();
        let ids2: Vec<TokenId> = toks2.iter().map(|tk| table.intern_token(tk)).collect();
        let mut cache = TokenSimCache::new(&table, &t, &affix);
        let cached = ns_token_ids(&ids1, &ids2, &mut cache);
        assert_eq!(direct.to_bits(), cached.to_bits());
    }

    #[test]
    fn initial_mapping_override() {
        let s1 = customer_schema("Schema1", "");
        let s2 = customer_schema("Schema2", "");
        let t = Thesaurus::empty();
        let mut a = analyze(&s1, &s2, &t, &cfg());
        let x = s1.find("Name").unwrap();
        let y = s2.find("Address").unwrap();
        a.lsim.set(x, y, 5.0); // clamps
        assert_eq!(a.lsim.get(x, y), 1.0);
    }
}
