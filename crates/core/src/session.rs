//! Corpus-scale batch matching: [`MatchSession`] (DESIGN.md §7).
//!
//! A session amortizes everything a single [`crate::Cupid`] match throws
//! away: each schema is prepared **once** (expansion, normalization,
//! categorization, interning into one session-wide `TokenTable`), and
//! the table's token-similarity memo persists across every pair, so a
//! distinct token pair is computed once per *corpus* instead of once per
//! *match*. Pair worklists are sharded across OS threads with
//! [`std::thread::scope`], every shard filling the one memo in place;
//! results are bit-identical to running the same pairs as independent
//! [`crate::Cupid::match_schemas`] calls, which
//! `tests/batch_equivalence.rs` proves under 1, 2 and 4 threads.
//!
//! Batch results are lightweight [`MatchSummary`] values (mappings +
//! top-k leaf similarities + pruning counters): an all-pairs run over an
//! N-schema corpus must not hold O(N²) cloned trees and similarity
//! matrices; their context paths are the prepared trees' own `Arc<str>`s.
//! Use the single-pair API ([`crate::Cupid::match_schemas`]) when the
//! full [`crate::MatchOutcome`] is needed.
//!
//! ```
//! use cupid_core::session::MatchSession;
//! use cupid_core::CupidConfig;
//! use cupid_lexical::Thesaurus;
//! use cupid_model::{DataType, ElementKind, SchemaBuilder};
//!
//! let schema = |name: &str, field: &str| {
//!     let mut b = SchemaBuilder::new(name);
//!     let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
//!     b.atomic(item, field, ElementKind::XmlElement, DataType::Int);
//!     b.build().unwrap()
//! };
//! let corpus = [schema("A", "Quantity"), schema("B", "Quantity"), schema("C", "Flags")];
//!
//! let cfg = CupidConfig::default();
//! let thesaurus = Thesaurus::with_default_stopwords();
//! let mut session = MatchSession::new(&cfg, &thesaurus);
//! let ids = session.add_corpus(&corpus).unwrap();
//! let summaries = session.match_all_pairs();
//! assert_eq!(summaries.len(), 3); // (A,B), (A,C), (B,C)
//! assert_eq!(ids.len(), session.stats().schemas);
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use cupid_lexical::{SimStore, Thesaurus, TokenSimCache, TokenTable};
use cupid_model::{
    expand, ModelError, NodeId, Schema, SchemaTree, WireError, WireReader, WireWriter,
};

use crate::config::CupidConfig;
use crate::explain::{explain_pair, PairExplanation};
use crate::linguistic::{pair_lsim, LsimTable, PairLsim, RawSchemaLing, SchemaLing};
use crate::mapping::{pair_mappings, MappingElement};
use crate::treematch::tree_match;

/// Handle of a schema prepared into a [`MatchSession`], in preparation
/// order. Only meaningful relative to the session that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaId(usize);

impl SchemaId {
    /// The dense index of this schema in its session.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Construct from a dense index. Callers that persist or remap
    /// summaries (the repository's incremental pair cache) use this to
    /// re-anchor a summary to the current session's indices; bounds are
    /// the caller's obligation.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        SchemaId(i)
    }
}

/// One schema's complete per-schema precompute: the expanded tree plus
/// the interned linguistic artifacts. Self-contained (no borrow of the
/// input [`Schema`]), so pair execution over shared `&PreparedSchema`s
/// can run on worker threads.
#[derive(Debug, Clone)]
pub struct PreparedSchema {
    /// The schema's name (for reports).
    pub name: String,
    /// Expanded schema tree (§8).
    pub tree: SchemaTree,
    /// Interned linguistic precompute (names, categories, id slices).
    pub ling: SchemaLing,
}

impl PreparedSchema {
    /// Export the precompute into the wire format (DESIGN.md §8): the
    /// expanded tree plus the interned linguistic artifacts, verbatim.
    /// A decoded `PreparedSchema` drives pair execution without
    /// re-running expansion, normalization, categorization or interning.
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_str(&self.name);
        self.tree.write_wire(w);
        self.ling.write_wire(w);
    }

    /// Import a precompute written by [`PreparedSchema::write_wire`],
    /// against the session [`TokenTable`] decoded from the same snapshot
    /// ([`SchemaLing::read_wire`]).
    pub fn read_wire(
        r: &mut WireReader<'_>,
        table: &mut TokenTable,
    ) -> Result<PreparedSchema, WireError> {
        let name = r.get_str()?;
        let tree = SchemaTree::read_wire(r)?;
        let ling = SchemaLing::read_wire(r, table)?;
        // Cross-check the two halves: every tree node must point at a
        // linguistic entry, or pair execution (and the discovery index)
        // would index past `ling.names`.
        for (id, node) in tree.iter() {
            if node.element.index() >= ling.len() {
                return Err(r.err(format!(
                    "tree node {id} references element {} but the schema has {} elements",
                    node.element,
                    ling.len()
                )));
            }
        }
        Ok(PreparedSchema { name, tree, ling })
    }
}

/// One leaf-pair similarity entry of a [`MatchSummary`]'s top-k list.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityEntry {
    /// Source context path.
    pub source_path: Arc<str>,
    /// Target context path.
    pub target_path: Arc<str>,
    /// Weighted similarity of the pair.
    pub wsim: f64,
}

/// Lightweight per-pair result for batch mode: the generated mappings
/// and the top-k leaf similarities, with the trees and similarity
/// matrices dropped. An all-pairs corpus run holds O(N²) of these, so
/// they must stay small: a clone copies three `Vec`s and shares every
/// path. The single-pair API ([`crate::Cupid`]) returns the full
/// [`crate::MatchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct MatchSummary {
    /// Source schema.
    pub source: SchemaId,
    /// Target schema.
    pub target: SchemaId,
    /// Leaf-level mapping (the paper's naïve 1:n generator, §7).
    pub leaf_mappings: Vec<MappingElement>,
    /// Non-leaf 1:1 mapping.
    pub nonleaf_mappings: Vec<MappingElement>,
    /// The k highest-`wsim` leaf pairs (threshold-free), descending;
    /// ties broken by node indices for determinism.
    pub top_pairs: Vec<SimilarityEntry>,
    /// Element pairs the linguistic phase actually compared.
    pub compared_pairs: usize,
    /// Total element pairs (`|S1| × |S2|`).
    pub total_pairs: usize,
}

impl MatchSummary {
    /// True if some leaf mapping relates the two context paths.
    pub fn has_leaf_mapping(&self, source_path: &str, target_path: &str) -> bool {
        self.leaf_mappings
            .iter()
            .any(|m| &*m.source_path == source_path && &*m.target_path == target_path)
    }

    /// Highest leaf-pair weighted similarity (0.0 for empty schemas) —
    /// the usual ranking score for corpus discovery.
    pub fn best_wsim(&self) -> f64 {
        self.top_pairs.first().map_or(0.0, |e| e.wsim)
    }

    /// Encode the summary, similarity bits included, for the
    /// repository's persisted pair cache (DESIGN.md §8).
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_u32(self.source.0 as u32);
        w.put_u32(self.target.0 as u32);
        for mappings in [&self.leaf_mappings, &self.nonleaf_mappings] {
            w.put_list(mappings, |w, m| {
                w.put_u32(m.source.index() as u32);
                w.put_u32(m.target.index() as u32);
                w.put_str(&m.source_path);
                w.put_str(&m.target_path);
                w.put_f64(m.wsim);
                w.put_f64(m.ssim);
                w.put_f64(m.lsim);
            });
        }
        w.put_list(&self.top_pairs, |w, e| {
            w.put_str(&e.source_path);
            w.put_str(&e.target_path);
            w.put_f64(e.wsim);
        });
        // Plain u64 counters, not put_len: these are statistics, not
        // allocation counts — they may legitimately exceed the
        // remaining input length that get_len sanity-checks against
        // (total_pairs is |S1|·|S2|), and must never truncate.
        w.put_u64(self.compared_pairs as u64);
        w.put_u64(self.total_pairs as u64);
    }

    /// Decode a summary written by [`MatchSummary::write_wire`].
    pub fn read_wire(r: &mut WireReader<'_>) -> Result<MatchSummary, WireError> {
        let source = SchemaId(r.get_u32()? as usize);
        let target = SchemaId(r.get_u32()? as usize);
        let mapping = |r: &mut WireReader<'_>| {
            Ok(MappingElement {
                source: NodeId::from_index(r.get_u32()? as usize),
                target: NodeId::from_index(r.get_u32()? as usize),
                source_path: r.get_arc_str()?,
                target_path: r.get_arc_str()?,
                wsim: r.get_f64()?,
                ssim: r.get_f64()?,
                lsim: r.get_f64()?,
            })
        };
        Ok(MatchSummary {
            source,
            target,
            leaf_mappings: r.get_list(mapping)?,
            nonleaf_mappings: r.get_list(mapping)?,
            top_pairs: r.get_list(|r| {
                Ok(SimilarityEntry {
                    source_path: r.get_arc_str()?,
                    target_path: r.get_arc_str()?,
                    wsim: r.get_f64()?,
                })
            })?,
            compared_pairs: r.get_u64()? as usize,
            total_pairs: r.get_u64()? as usize,
        })
    }
}

/// Aggregate counters of a session, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Schemas prepared into the session.
    pub schemas: usize,
    /// Pairs matched so far (across all `match_*` calls).
    pub pairs_matched: usize,
    /// Distinct interned tokens across the whole corpus (`|V|`).
    pub vocab_size: usize,
    /// Approximate heap bytes held by the session's [`TokenTable`]
    /// (entry text, index keys and name keys plus fixed overhead) — the
    /// interner's memory footprint gauge.
    pub vocab_bytes: usize,
    /// Distinct token pairs whose similarity is memoized in the session
    /// table's token memo — every further comparison anywhere in the
    /// corpus is a lookup.
    pub distinct_pairs_computed: usize,
    /// Chunks the token memo ([`TokenTable::store`]) has allocated
    /// (32 KiB each; only touched regions of the triangular index space
    /// materialize).
    pub sim_chunks: usize,
    /// Bytes committed by the similarity memos: those chunks plus the
    /// name memo's ([`TokenTable::name_memo_bytes`]).
    pub sim_bytes: usize,
}

/// A batch-matching session: shared interner, persistent similarity
/// memo, per-schema precompute, sharded pair execution (DESIGN.md §7).
///
/// Construct via [`MatchSession::new`] or [`crate::Cupid::session`],
/// [`MatchSession::add`]/[`add_corpus`](MatchSession::add_corpus) the
/// schemas, then run [`match_pair`](MatchSession::match_pair),
/// [`match_pairs`](MatchSession::match_pairs) or
/// [`match_all_pairs`](MatchSession::match_all_pairs). Results are
/// bit-identical to independent [`crate::Cupid::match_schemas`] calls
/// regardless of the thread count. Preparing schemas takes `&mut self`;
/// every match and explanation takes `&self`, filling the one memo in
/// place, so many threads can match over one session at once.
#[derive(Debug)]
pub struct MatchSession<'a> {
    config: &'a CupidConfig,
    thesaurus: &'a Thesaurus,
    table: TokenTable,
    schemas: Vec<PreparedSchema>,
    threads: usize,
    top_k: usize,
    pairs_matched: AtomicUsize,
}

impl<'a> MatchSession<'a> {
    /// A session over a configuration and thesaurus (both outlive the
    /// session; one thesaurus serves the whole corpus).
    ///
    /// Defaults: one worker thread per available CPU (capped at 8) and
    /// `top_k = 10` similarity entries per summary.
    pub fn new(config: &'a CupidConfig, thesaurus: &'a Thesaurus) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        MatchSession {
            config,
            thesaurus,
            table: TokenTable::new(),
            schemas: Vec::new(),
            threads,
            top_k: 10,
            pairs_matched: AtomicUsize::new(0),
        }
    }

    /// Set the worker-thread count for sharded pair execution (and for
    /// parallel per-schema prepare). `n > 1` shards the worklist, every
    /// shard filling the session's one memo in place; `1` keeps the work
    /// on the calling thread. The thread count never affects results,
    /// only wall-clock time.
    pub fn threads(mut self, n: usize) -> Self {
        self.set_threads(n);
        self
    }

    /// Set the worker-thread count on an existing session (the
    /// non-consuming form of [`MatchSession::threads`]).
    pub fn set_threads(&mut self, n: usize) {
        self.threads = n.max(1);
    }

    /// Set how many top leaf similarities each [`MatchSummary`] keeps.
    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Prepare one schema into the session: expansion, normalization,
    /// categorization, interning — each done exactly once no matter how
    /// many pairs the schema later participates in.
    pub fn add(&mut self, schema: &Schema) -> Result<SchemaId, ModelError> {
        let tree = expand(schema, &self.config.expand)?;
        let raw = RawSchemaLing::of(schema, self.thesaurus);
        Ok(self.push_prepared(schema.name().to_string(), tree, raw))
    }

    /// Prepare a whole corpus. The thread-safe half of preparation
    /// (expansion, normalization, categorization) fans out across the
    /// session's worker threads; interning into the shared table then
    /// runs sequentially in corpus order, so ids — and therefore every
    /// downstream artifact — are independent of thread scheduling.
    ///
    /// All-or-nothing: if any schema fails to expand, the error is
    /// returned and the session is left exactly as it was — no schema
    /// of the batch is added, so a retry after fixing the corpus cannot
    /// create duplicates.
    pub fn add_corpus(&mut self, schemas: &[Schema]) -> Result<Vec<SchemaId>, ModelError> {
        let (config, thesaurus) = (self.config, self.thesaurus);
        let shards = sharded(self.threads, schemas, |shard| {
            shard.iter().map(|s| prepare_raw(s, config, thesaurus)).collect::<Vec<_>>()
        });
        // Surface any preparation error before mutating the session, so
        // a failed batch leaves no partial state behind.
        let prepared: Vec<_> = shards.into_iter().flatten().collect::<Result<_, _>>()?;
        let mut ids = Vec::with_capacity(schemas.len());
        for (s, (tree, raw)) in schemas.iter().zip(prepared) {
            ids.push(self.push_prepared(s.name().to_string(), tree, raw));
        }
        Ok(ids)
    }

    fn push_prepared(&mut self, name: String, tree: SchemaTree, raw: RawSchemaLing) -> SchemaId {
        let ling = raw.intern(&mut self.table);
        self.schemas.push(PreparedSchema { name, tree, ling });
        SchemaId(self.schemas.len() - 1)
    }

    /// Re-prepare the schema at `id` in place — the incremental-update
    /// primitive behind the repository's `replace`. The new schema's
    /// tokens are interned into the (append-only) session table; stale
    /// tokens from the old version stay interned, which wastes a few
    /// table entries but keeps every other schema's id slices — and the
    /// whole warm similarity memo — valid.
    pub fn replace(&mut self, id: SchemaId, schema: &Schema) -> Result<(), ModelError> {
        let tree = expand(schema, &self.config.expand)?;
        let ling = RawSchemaLing::of(schema, self.thesaurus).intern(&mut self.table);
        self.schemas[id.0] = PreparedSchema { name: schema.name().to_string(), tree, ling };
        Ok(())
    }

    /// Remove the schema at `id`. Every schema after it shifts down by
    /// one — all previously issued [`SchemaId`]s at or past `id` are
    /// invalidated, which is why this is a building block for the
    /// repository (which tracks schemas by name and re-derives ids)
    /// rather than a casual session operation. The interner and memo
    /// are untouched: ids of the remaining schemas stay valid.
    pub fn remove(&mut self, id: SchemaId) -> PreparedSchema {
        self.schemas.remove(id.0)
    }

    /// Rebuild a session from exported state: the (config, thesaurus)
    /// pair it will match under, plus the token table (with its memos)
    /// and prepared schemas of a snapshot. The caller attests the parts
    /// belong together — the repository enforces this with
    /// config/thesaurus fingerprints before calling (DESIGN.md §8).
    pub fn from_parts(
        config: &'a CupidConfig,
        thesaurus: &'a Thesaurus,
        table: TokenTable,
        schemas: Vec<PreparedSchema>,
    ) -> Self {
        let mut session = MatchSession::new(config, thesaurus);
        session.table = table;
        session.schemas = schemas;
        session
    }

    /// Decompose the session into its persistent parts (token table,
    /// with its memos, and prepared schemas) for snapshotting.
    pub fn into_parts(self) -> (TokenTable, Vec<PreparedSchema>) {
        (self.table, self.schemas)
    }

    /// The session's token table (snapshot export).
    pub fn table(&self) -> &TokenTable {
        &self.table
    }

    /// The session's token memo ([`TokenTable::store`]).
    pub fn store(&self) -> &SimStore {
        self.table.store()
    }

    /// Number of schemas prepared so far.
    pub fn len(&self) -> usize {
        self.schemas.len()
    }

    /// True if no schema has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.schemas.is_empty()
    }

    /// A prepared schema, by id.
    pub fn schema(&self, id: SchemaId) -> &PreparedSchema {
        &self.schemas[id.0]
    }

    /// All prepared schemas, in preparation order (snapshot export and
    /// index construction).
    pub fn prepared(&self) -> &[PreparedSchema] {
        &self.schemas
    }

    /// All schema ids, in preparation order.
    pub fn ids(&self) -> impl Iterator<Item = SchemaId> {
        (0..self.schemas.len()).map(SchemaId)
    }

    /// Aggregate session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            schemas: self.schemas.len(),
            pairs_matched: self.pairs_matched(),
            vocab_size: self.table.len(),
            vocab_bytes: self.table.approx_bytes(),
            distinct_pairs_computed: self.table.store().distinct_pairs_computed(),
            sim_chunks: self.table.store().allocated_chunks(),
            sim_bytes: self.table.store().allocated_bytes() + self.table.name_memo_bytes(),
        }
    }

    /// [`SessionStats::pairs_matched`], without the rest of the stats.
    pub fn pairs_matched(&self) -> usize {
        self.pairs_matched.load(Relaxed)
    }

    /// Match one prepared pair, reusing (and further warming) the
    /// session's persistent similarity memo.
    pub fn match_pair(&self, source: SchemaId, target: SchemaId) -> MatchSummary {
        self.match_pairs(&[(source, target)]).remove(0)
    }

    /// Match an explicit worklist of prepared pairs, sharded across the
    /// session's worker threads, and count them in
    /// [`SessionStats::pairs_matched`]. Summaries come back in worklist
    /// order; results are bit-identical for every thread count
    /// (DESIGN.md §7: each pair is a pure function of frozen inputs, and
    /// memo state only decides *when* a token-pair similarity is
    /// computed, never *what* it is). Through `&self`, so a daemon
    /// answers match requests from many threads under a read lock.
    pub fn match_pairs(&self, worklist: &[(SchemaId, SchemaId)]) -> Vec<MatchSummary> {
        let summaries = self.execute(worklist, execute_pair);
        self.pairs_matched.fetch_add(worklist.len(), Relaxed);
        summaries
    }

    /// Explain one prepared pair: run it through the pair pipeline and
    /// return per-mapping score provenance read from the engine's own
    /// state (DESIGN.md §14). The match itself never pays for this —
    /// explanations are produced by this separate entry point, and pair
    /// execution is a pure function of frozen prepared state, so the
    /// captured scores are bit-identical to what
    /// [`MatchSession::match_pair`] reports. An explanation is not a
    /// match: it leaves [`SessionStats::pairs_matched`] alone.
    pub fn explain_pair(&self, source: SchemaId, target: SchemaId) -> PairExplanation {
        self.execute(&[(source, target)], explain).remove(0)
    }

    /// The linguistic similarity table of a prepared pair, computed
    /// through the session memo — diagnostics, and the anchor of the
    /// batch-equivalence suite (bit-identical to
    /// [`crate::linguistic::analyze`] on the same schemas).
    pub fn lsim_of(&self, source: SchemaId, target: SchemaId) -> LsimTable {
        self.execute(&[(source, target)], |this, a, b, cache| {
            pair_lsim(&this.schemas[a.0].ling, &this.schemas[b.0].ling, this.config, cache).lsim
        })
        .remove(0)
    }

    /// The pair executor behind every entry point: run `step` over the
    /// [`sharded`] worklist, each shard through one cache over the
    /// session's memo, which every shard fills in place (only a token
    /// pair two shards meet at once can be computed twice, and only one
    /// write of it counts), and return the results in worklist order.
    fn execute<T: Send>(
        &self,
        worklist: &[(SchemaId, SchemaId)],
        step: impl Fn(&Self, SchemaId, SchemaId, &mut TokenSimCache<'_>) -> T + Sync,
    ) -> Vec<T> {
        sharded(self.threads, worklist, |shard| {
            let mut cache = TokenSimCache::new(&self.table, self.thesaurus, &self.config.affix);
            shard.iter().map(|&(a, b)| step(self, a, b, &mut cache)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Match every unordered schema pair `(i, j)` with `i < j`, in
    /// lexicographic order — the Valentine-style all-pairs discovery
    /// workload.
    pub fn match_all_pairs(&self) -> Vec<MatchSummary> {
        let n = self.schemas.len();
        let worklist: Vec<_> =
            (0..n).flat_map(|i| (i + 1..n).map(move |j| (SchemaId(i), SchemaId(j)))).collect();
        self.match_pairs(&worklist)
    }
}

/// Run `run` over `min(threads, len)` contiguous chunks of `items` on
/// scoped OS threads and return its results in chunk order. One chunk —
/// an empty `items` included — runs on the calling thread.
fn sharded<I: Sync, T: Send>(
    threads: usize,
    items: &[I],
    run: impl Fn(&[I]) -> T + Sync,
) -> Vec<T> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return vec![run(items)];
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let run = &run;
        let workers: Vec<_> =
            items.chunks(chunk).map(|shard| scope.spawn(move || run(shard))).collect();
        workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
    })
}

/// Per-schema raw preparation (the parallel-safe half of `add_corpus`).
fn prepare_raw(
    schema: &Schema,
    config: &CupidConfig,
    thesaurus: &Thesaurus,
) -> Result<(SchemaTree, RawSchemaLing), ModelError> {
    let tree = expand(schema, &config.expand)?;
    Ok((tree, RawSchemaLing::of(schema, thesaurus)))
}

/// Match step of [`MatchSession::execute`]: one pair through the
/// pipeline — `pair_lsim`, TreeMatch, the mapping policy — then top-k
/// extraction. The single-pair API runs the same steps, so summaries
/// agree with it bit for bit.
fn execute_pair(
    session: &MatchSession<'_>,
    source: SchemaId,
    target: SchemaId,
    cache: &mut TokenSimCache<'_>,
) -> MatchSummary {
    let (cfg, s1, s2) = (session.config, &session.schemas[source.0], &session.schemas[target.0]);
    // The category scale is kept for explanations only: free it before
    // TreeMatch allocates.
    let PairLsim { lsim, compared_pairs, total_pairs, .. } =
        pair_lsim(&s1.ling, &s2.ling, cfg, cache);
    let res = tree_match(&s1.tree, &s2.tree, &lsim, cfg);
    let (leaf, nonleaf) = pair_mappings(&s1.tree, &s2.tree, &res, &lsim, cfg);

    // Top-k leaf similarities, threshold-free (discovery signal even
    // when nothing clears th_accept), in `RankedPair` order. One bounded
    // selection pass: the heap holds at most min(k, n₁·n₂) pairs with
    // the worst kept pair on top, so a pair that cannot make the cut
    // costs one comparison, and only survivors clone the trees' paths.
    let (t1, t2) = (&s1.tree, &s2.tree);
    let cap = session.top_k.min(t1.leaf_count() * t2.leaf_count());
    let mut kept = BinaryHeap::with_capacity(cap);
    for l1 in 0..t1.leaf_count() as u32 {
        let source = t1.leaf_node(l1).index();
        let row = res.wsim.row(source);
        for l2 in 0..t2.leaf_count() as u32 {
            let target = t2.leaf_node(l2).index();
            let pair = RankedPair { wsim: row[target], source, target };
            if kept.len() < cap {
                kept.push(pair);
            } else if let Some(mut worst) = kept.peek_mut() {
                if pair < *worst {
                    *worst = pair;
                }
            }
        }
    }
    let top_pairs = kept
        .into_sorted_vec()
        .into_iter()
        .map(|p| SimilarityEntry {
            source_path: t1.shared_path(NodeId::from_index(p.source)).clone(),
            target_path: t2.shared_path(NodeId::from_index(p.target)).clone(),
            wsim: p.wsim,
        })
        .collect();

    MatchSummary {
        source,
        target,
        leaf_mappings: leaf,
        nonleaf_mappings: nonleaf,
        top_pairs,
        compared_pairs,
        total_pairs,
    }
}

/// Explain step of [`MatchSession::execute`].
fn explain(
    session: &MatchSession<'_>,
    source: SchemaId,
    target: SchemaId,
    cache: &mut TokenSimCache<'_>,
) -> PairExplanation {
    let (s1, s2) = (&session.schemas[source.0], &session.schemas[target.0]);
    explain_pair(session.config, s1, s2, &session.table, session.thesaurus, cache)
}

/// A leaf pair in [`MatchSummary::top_pairs`] order: wsim descending,
/// then source node index, then target node index. `Ord` sorts the
/// better pair first, so a max-heap's top is the worst pair it holds.
struct RankedPair {
    wsim: f64,
    source: usize,
    target: usize,
}

impl Ord for RankedPair {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .wsim
            .partial_cmp(&self.wsim)
            .unwrap_or(Ordering::Equal)
            .then(self.source.cmp(&other.source))
            .then(self.target.cmp(&other.target))
    }
}

impl PartialOrd for RankedPair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RankedPair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RankedPair {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cupid;
    use cupid_lexical::ThesaurusBuilder;
    use cupid_model::{DataType, ElementKind, SchemaBuilder};

    fn thesaurus() -> Thesaurus {
        ThesaurusBuilder::new()
            .abbreviation("Qty", &["quantity"])
            .synonym("Invoice", "Bill", 1.0)
            .build()
            .unwrap()
    }

    fn schema(name: &str, container: &str, fields: &[(&str, DataType)]) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), container, ElementKind::XmlElement);
        for (f, dt) in fields {
            b.atomic(c, *f, ElementKind::XmlElement, *dt);
        }
        b.build().unwrap()
    }

    fn corpus() -> Vec<Schema> {
        vec![
            schema("S0", "Item", &[("Qty", DataType::Int), ("Invoice", DataType::String)]),
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Bill", DataType::String)]),
            schema("S2", "Order", &[("Quantity", DataType::Int)]),
            schema("S3", "Thing", &[("Unrelated", DataType::Date)]),
        ]
    }

    #[test]
    fn session_matches_single_pair_api() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let summary = session.match_pair(ids[0], ids[1]);
        let outcome = Cupid::with_config(cfg.clone(), th.clone())
            .match_schemas(&corpus[0], &corpus[1])
            .unwrap();
        assert_eq!(summary.leaf_mappings, outcome.leaf_mappings);
        assert_eq!(summary.nonleaf_mappings, outcome.nonleaf_mappings);
        assert_eq!(summary.compared_pairs, outcome.linguistic.compared_pairs);
        assert!(summary.has_leaf_mapping("S0.Item.Qty", "S1.Item.Quantity"));
    }

    #[test]
    fn summary_paths_are_the_prepared_trees_paths() {
        let (cfg, th) = (CupidConfig::default(), thesaurus());
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus()).unwrap();
        let s = session.match_pair(ids[0], ids[1]);
        let (t1, t2) = (&session.schema(ids[0]).tree, &session.schema(ids[1]).tree);
        let shared = |t: &SchemaTree, id, p: &Arc<str>| Arc::ptr_eq(p, t.shared_path(id));
        let named = |t: &SchemaTree, p: &Arc<str>| shared(t, t.find_path(p).unwrap(), p);
        assert!(!s.leaf_mappings.is_empty() && !s.nonleaf_mappings.is_empty());
        for m in s.leaf_mappings.iter().chain(&s.nonleaf_mappings) {
            assert!(shared(t1, m.source, &m.source_path) && shared(t2, m.target, &m.target_path));
        }
        assert!(s.top_pairs.iter().all(|e| named(t1, &e.source_path) && named(t2, &e.target_path)));
    }

    #[test]
    fn all_pairs_order_and_count() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        session.add_corpus(&corpus).unwrap();
        let summaries = session.match_all_pairs();
        assert_eq!(summaries.len(), 6);
        let pairs: Vec<(usize, usize)> =
            summaries.iter().map(|s| (s.source.index(), s.target.index())).collect();
        assert_eq!(pairs, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let stats = session.stats();
        assert_eq!(stats.pairs_matched, 6);
        assert_eq!(stats.schemas, 4);
        assert!(stats.vocab_size > 0);
        assert!(stats.distinct_pairs_computed > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        // The memo counters cover the shared fill: shards may compute a
        // token pair twice, but only one write of it counts.
        let run = |threads: usize| {
            let mut session = MatchSession::new(&cfg, &th).threads(threads);
            session.add_corpus(&corpus).unwrap();
            let summaries = session.match_all_pairs();
            let stats = session.stats();
            (summaries, stats.pairs_matched, stats.distinct_pairs_computed, stats.sim_chunks)
        };
        let sequential = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), sequential, "threads = {threads}");
        }
    }

    #[test]
    fn session_memo_carries_across_pairs() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        session.match_pair(ids[0], ids[1]);
        let after_first = session.stats().distinct_pairs_computed;
        session.match_pair(ids[0], ids[1]);
        assert_eq!(
            session.stats().distinct_pairs_computed,
            after_first,
            "a repeated pair must be answered entirely from the memo"
        );
    }

    #[test]
    fn incremental_add_keeps_store_valid() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let a = session.add(&corpus[0]).unwrap();
        let b = session.add(&corpus[1]).unwrap();
        let before = session.match_pair(a, b);
        // Growing the vocabulary after matching must not invalidate the
        // warm memo: the same pair still produces identical output.
        let c = session.add(&corpus[2]).unwrap();
        let again = session.match_pair(a, b);
        assert_eq!(before, again);
        let cross = session.match_pair(b, c);
        assert!(cross.has_leaf_mapping("S1.Item.Quantity", "S2.Order.Quantity"));
    }

    #[test]
    fn shared_match_is_bit_identical_and_fills_one_memo() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let want = session.match_pair(ids[0], ids[1]);
        let computed = session.stats().distinct_pairs_computed;

        // Three threads match through `&self` at once, bit for bit,
        // over the one warm memo: nothing is computed again, and every
        // call is counted.
        let (a, b, start) = (ids[0], ids[1], std::sync::Barrier::new(3));
        std::thread::scope(|scope| {
            let (session, start) = (&session, &start);
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move || {
                        start.wait();
                        session.match_pairs(&[(a, b)])
                    })
                })
                .collect();
            for w in workers {
                assert_eq!(w.join().unwrap(), std::slice::from_ref(&want));
            }
        });
        assert_eq!(session.stats().distinct_pairs_computed, computed);
        assert_eq!(session.stats().pairs_matched, 4);
    }

    #[test]
    fn lsim_of_matches_analyze() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        for (i, j) in [(0, 1), (1, 2), (2, 3)] {
            let got = session.lsim_of(ids[i], ids[j]);
            let want = crate::linguistic::analyze(&corpus[i], &corpus[j], &th, &cfg);
            assert_eq!(got.matrix().max_abs_diff(want.lsim.matrix()), 0.0, "pair ({i}, {j})");
        }
    }

    #[test]
    fn top_pairs_are_sorted_and_capped() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1).top_k(2);
        let ids = session.add_corpus(&corpus).unwrap();
        let s = session.match_pair(ids[0], ids[1]);
        assert_eq!(s.top_pairs.len(), 2);
        assert!(s.top_pairs[0].wsim >= s.top_pairs[1].wsim);
        assert_eq!(s.best_wsim(), s.top_pairs[0].wsim);
    }

    #[test]
    fn top_pairs_order_contract_at_the_edges() {
        // No two leaf names share a token, and all leaves have one type
        // and one parent, so every leaf pair's wsim ties exactly and node
        // indices alone order them, lowest first.
        let cfg = CupidConfig::default();
        let th = Thesaurus::empty();
        let int = DataType::Int;
        let corpus = [
            schema("P", "Foo", &[("Kx", int), ("Jm", int), ("Wz", int)]),
            schema("Q", "Bar", &[("Vy", int), ("Hb", int)]),
        ];
        let all = [
            ("P.Foo.Kx", "Q.Bar.Vy"),
            ("P.Foo.Kx", "Q.Bar.Hb"),
            ("P.Foo.Jm", "Q.Bar.Vy"),
            ("P.Foo.Jm", "Q.Bar.Hb"),
            ("P.Foo.Wz", "Q.Bar.Vy"),
            ("P.Foo.Wz", "Q.Bar.Hb"),
        ];
        // k ≥ n₁·n₂ keeps every pair; `usize::MAX` must not size a buffer.
        for k in [0, 1, 4, all.len(), all.len() + 1, usize::MAX] {
            let mut session = MatchSession::new(&cfg, &th).threads(1).top_k(k);
            let ids = session.add_corpus(&corpus).unwrap();
            let top = session.match_pair(ids[0], ids[1]).top_pairs;
            let got: Vec<(&str, &str)> =
                top.iter().map(|e| (&*e.source_path, &*e.target_path)).collect();
            assert_eq!(got, all[..k.min(all.len())], "k = {k}");
            assert!(top.iter().all(|e| e.wsim.to_bits() == top[0].wsim.to_bits()), "k = {k}");
        }
    }

    #[test]
    fn failed_add_corpus_leaves_session_untouched() {
        use cupid_model::ElementKind;
        // A schema whose expansion fails: recursive type definition.
        let mut b = SchemaBuilder::new("Bad");
        let part = b.type_def("Part");
        let sub = b.structured(part, "SubPart", ElementKind::XmlElement);
        b.derive_from(sub, part);
        let e = b.structured(b.root(), "Root", ElementKind::XmlElement);
        b.derive_from(e, part);
        let bad = b.build().unwrap();

        let cfg = CupidConfig::default();
        let th = thesaurus();
        let mut batch = corpus();
        batch.push(bad);
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        assert!(session.add_corpus(&batch).is_err());
        // All-or-nothing: the good schemas were not half-added, so a
        // retry with the fixed corpus starts clean.
        assert!(session.is_empty());
        assert_eq!(session.stats().vocab_size, 0);
        let ids = session.add_corpus(&batch[..4]).unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(session.len(), 4);
    }

    #[test]
    fn prepared_schema_and_summary_wire_round_trip() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let summary = session.match_pair(ids[0], ids[1]);

        let prepared = session.schema(ids[0]);
        let mut w = WireWriter::new();
        prepared.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut table = session.table().clone();
        let back = PreparedSchema::read_wire(&mut r, &mut table).unwrap();
        r.finish().unwrap();
        assert_eq!(back.name, prepared.name);
        assert_eq!(back.tree.len(), prepared.tree.len());
        assert_eq!(back.ling.names, prepared.ling.names);
        // A clone holds the same names, so decoding interns the same ids.
        for i in 0..prepared.ling.len() {
            assert_eq!(back.ling.name_id(i), prepared.ling.name_id(i));
        }

        let mut w = WireWriter::new();
        summary.write_wire(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let back = MatchSummary::read_wire(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn imported_prepared_schema_matches_bit_identically() {
        // Round-trip *every* prepared schema plus the table and its memo,
        // rebuild a session from the parts, and check a pair executes
        // to the exact same summary — the snapshot bit-identity
        // argument in miniature (DESIGN.md §8).
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let want: Vec<MatchSummary> = session.match_all_pairs();
        let vocab = session.stats().vocab_size;

        let (table, schemas) = session.into_parts();
        let mut w = WireWriter::new();
        table.write_wire(&mut w);
        w.put_list(&schemas, |w, s| s.write_wire(w));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let mut table2 = cupid_lexical::TokenTable::read_wire(&mut r).unwrap();
        let schemas2 = r.get_list(|r| PreparedSchema::read_wire(r, &mut table2)).unwrap();
        assert_eq!(table2.len(), vocab);
        r.finish().unwrap();

        let session = MatchSession::from_parts(&cfg, &th, table2, schemas2).threads(1);
        let got = session.match_all_pairs();
        assert_eq!(got, want);
        assert_eq!(
            session.stats().distinct_pairs_computed,
            table.store().distinct_pairs_computed(),
            "a warm store answers every repeated pair without recomputing"
        );
        let _ = ids;
    }

    #[test]
    fn replace_reprepares_in_place() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let before = session.match_pair(ids[0], ids[1]);
        let edited =
            schema("S1", "Item", &[("Quantity", DataType::Int), ("Total", DataType::Money)]);
        session.replace(ids[1], &edited).unwrap();
        let after = session.match_pair(ids[0], ids[1]);
        assert_ne!(before, after);
        assert!(after.has_leaf_mapping("S0.Item.Qty", "S1.Item.Quantity"));
        // Untouched pairs still match exactly as a fresh session would.
        let cross = session.match_pair(ids[2], ids[3]);
        let mut fresh = MatchSession::new(&cfg, &th).threads(1);
        let fids = fresh.add_corpus(&corpus).unwrap();
        let want = fresh.match_pair(fids[2], fids[3]);
        assert_eq!(cross.leaf_mappings, want.leaf_mappings);
    }

    #[test]
    fn remove_shifts_later_ids() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let corpus = corpus();
        let mut session = MatchSession::new(&cfg, &th).threads(1);
        let ids = session.add_corpus(&corpus).unwrap();
        let removed = session.remove(ids[1]);
        assert_eq!(removed.name, "S1");
        assert_eq!(session.len(), 3);
        assert_eq!(session.schema(SchemaId::from_index(1)).name, "S2");
        // The surviving schemas still match (table/store untouched).
        let s = session.match_pair(SchemaId::from_index(1), SchemaId::from_index(2));
        assert_eq!(s.total_pairs, corpus[2].len() * corpus[3].len());
    }

    #[test]
    fn empty_worklist_is_fine() {
        let cfg = CupidConfig::default();
        let th = thesaurus();
        let session = MatchSession::new(&cfg, &th);
        assert!(session.is_empty());
        assert!(session.match_all_pairs().is_empty());
        assert_eq!(session.stats().pairs_matched, 0);
    }
}
