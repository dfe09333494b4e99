//! The TreeMatch structure-matching algorithm (§6, Figure 3).
//!
//! ```text
//! TreeMatch(SourceTree S, TargetTree T)
//!   for each s ∈ S, t ∈ T where s,t are leaves
//!     set ssim(s,t) = datatype-compatibility(s,t)
//!   S' = post-order(S), T' = post-order(T)
//!   for each s in S'
//!     for each t in T'
//!       compute ssim(s,t) = structural-similarity(s,t)
//!       wsim(s,t) = wstruct·ssim(s,t) + (1−wstruct)·lsim(s,t)
//!       if wsim(s,t) > thhigh
//!         increase-struct-similarity(leaves(s), leaves(t), cinc)
//!       if wsim(s,t) < thlow
//!         decrease-struct-similarity(leaves(s), leaves(t), cdec)
//! ```
//!
//! The structural similarity of two non-leaf elements is the fraction of
//! leaves in the two subtrees with at least one *strong link* (a leaf pair
//! whose weighted similarity exceeds `thaccept`) to the other subtree.
//! The paper deliberately avoids a 1:1 bipartite matching here (§6).
//!
//! A run keeps its state flat (DESIGN.md §11.3). Per-node lookups are
//! read into vectors once per run. The leaf and required-leaf masks are
//! the trees' own bit rows ([`SchemaTree::leaf_mask`]), and the two
//! strong-link tables are row-major bit matrices, one allocation each,
//! so the test *"does leaf x link into subtree t?"* is a word-wise
//! intersection of two row slices.

use cupid_model::{DataType, ElementId, NodeId, SchemaTree};

use crate::config::CupidConfig;
use crate::linguistic::LsimTable;
use crate::simmatrix::SimMatrix;

/// Counters describing a TreeMatch run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeMatchStats {
    /// Node pairs whose structural similarity was computed.
    pub compared_pairs: usize,
    /// Node pairs skipped by the leaf-count ratio pruning.
    pub pruned_pairs: usize,
    /// Number of `increase-struct-similarity` invocations.
    pub increases: usize,
    /// Number of `decrease-struct-similarity` invocations.
    pub decreases: usize,
    /// Node-pair computations skipped by lazy-expansion block copying.
    pub lazy_copied_pairs: usize,
}

/// Result of a TreeMatch run, with the recomputed final similarities used
/// for mapping generation (§7's *"second post-order traversal … to
/// re-compute the similarities of non-leaf elements"*).
#[derive(Debug, Clone)]
pub struct TreeMatchResult {
    /// Final structural similarity of leaf pairs (`leaf₁ × leaf₂`,
    /// indexed by leaf indices).
    pub leaf_ssim: SimMatrix,
    /// Final (recomputed) structural similarity per node pair.
    pub ssim: SimMatrix,
    /// Final weighted similarity per node pair.
    pub wsim: SimMatrix,
    /// Run counters.
    pub stats: TreeMatchStats,
}

/// A row-major bit matrix in one allocation: row `i` is the word slice
/// `words[i * stride..(i + 1) * stride]`.
#[derive(Clone)]
struct BitMatrix {
    stride: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    fn new(rows: usize, cols: usize) -> Self {
        let stride = cols.div_ceil(64);
        BitMatrix { stride, words: vec![0; rows * stride] }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    #[inline]
    fn get(&self, i: usize, j: usize) -> bool {
        bit(self.row(i), j)
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize) {
        self.words[i * self.stride + j / 64] |= 1 << (j % 64);
    }

    #[inline]
    fn flip(&mut self, i: usize, j: usize) {
        self.words[i * self.stride + j / 64] ^= 1 << (j % 64);
    }
}

/// Bit `j` of a row.
#[inline]
fn bit(row: &[u64], j: usize) -> bool {
    (row[j / 64] >> (j % 64)) & 1 == 1
}

/// The strong-link table and its transpose, kept in step.
#[derive(Clone)]
struct StrongLinks {
    /// Row x: target leaves y with a strong link from source leaf x.
    rows: BitMatrix,
    /// Row y: source leaves x with a strong link to target leaf y.
    cols: BitMatrix,
}

impl StrongLinks {
    /// Set the flag of leaf pair `(x, y)`; only a changed flag writes.
    #[inline]
    fn set(&mut self, x: usize, y: usize, strong: bool) {
        if self.rows.get(x, y) != strong {
            self.rows.flip(x, y);
            self.cols.flip(y, x);
        }
    }

    /// Set the flags of word `wi` of source leaf `x`'s row to `strong`
    /// under `mask`, flipping the transpose for changed bits only.
    #[inline]
    fn set_word(&mut self, x: usize, wi: usize, mask: u64, strong: u64) {
        let word = &mut self.rows.words[x * self.rows.stride + wi];
        let mut changed = (*word ^ strong) & mask;
        *word ^= changed;
        while changed != 0 {
            self.cols.flip(wi * 64 + changed.trailing_zeros() as usize, x);
            changed &= changed - 1;
        }
    }
}

/// True if two rows share a set bit.
#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&a, &b)| a & b != 0)
}

/// Indices of the set bits of a row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + b)
        })
    })
}

/// `w·ssim + (1−w)·lsim`: the one weighted-similarity formula of every
/// step, so every step rounds alike.
#[inline]
fn weighted(w: f64, ssim: f64, lsim: f64) -> f64 {
    w * ssim + (1.0 - w) * lsim
}

/// Per-node lookups of one tree, read once per run.
struct NodeTables<'a> {
    tree: &'a SchemaTree,
    /// Leaf index of each node (`Some` exactly for leaves).
    leaf: Vec<Option<usize>>,
    element: Vec<ElementId>,
    /// Leaves under each node, for the leaf-count ratio test.
    leaf_count: Vec<f64>,
    /// Row per node: the leaves its `ssim` counts under a configured
    /// `leaf_depth_limit`. Without one, the tree's own leaf masks.
    limited: Option<BitMatrix>,
}

impl<'a> NodeTables<'a> {
    fn new(tree: &'a SchemaTree, depth_limit: Option<u32>) -> Self {
        let ids = || (0..tree.len()).map(NodeId::from_index);
        // Leaves within k levels of each node (§8.4 "Pruning leaves").
        // Internal frontier nodes at depth k simply cut deeper leaves off.
        let limited = depth_limit.map(|k| {
            let mut masks = BitMatrix::new(tree.len(), tree.leaf_count());
            for id in ids() {
                let frontier = tree.frontier_at_depth(id, k);
                let leaves = frontier.into_iter().filter_map(|f| tree.leaf_index(f));
                leaves.for_each(|l| masks.set(id.index(), l as usize));
            }
            masks
        });
        NodeTables {
            tree,
            leaf: ids().map(|id| tree.leaf_index(id).map(|l| l as usize)).collect(),
            element: ids().map(|id| tree.node(id).element).collect(),
            leaf_count: ids().map(|id| tree.leaves(id).len() as f64).collect(),
            limited,
        }
    }

    /// Row of node `i`: the leaves its `ssim` counts.
    #[inline]
    fn mask(&self, i: usize) -> &[u64] {
        match &self.limited {
            Some(masks) => masks.row(i),
            None => self.tree.leaf_mask(NodeId::from_index(i)),
        }
    }

    /// Whether leaf `x` is a required leaf of node `i` (§8.4
    /// optionality).
    #[inline]
    fn required(&self, i: usize, x: usize) -> bool {
        bit(self.tree.required_mask(NodeId::from_index(i)), x)
    }
}

/// Leaf and strong-link counts of a node pair over its two leaf masks.
#[derive(Default)]
pub(crate) struct LinkCounts {
    pub source_leaves: usize,
    pub target_leaves: usize,
    /// Source leaves with a strong link into the target mask.
    pub source_links: usize,
    /// Target leaves with a strong link into the source mask.
    pub target_links: usize,
    /// Optional leaves without a strong link, dropped from the
    /// denominator (§8.4 optionality).
    pub dropped: usize,
}

/// Shared state of a TreeMatch run. `pub(crate)` so the lazy-expansion
/// driver ([`crate::lazy`]) and [`crate::explain`] reuse the exact same
/// primitives.
pub(crate) struct Workspace<'a> {
    t1: &'a SchemaTree,
    t2: &'a SchemaTree,
    lsim: &'a LsimTable,
    cfg: &'a CupidConfig,
    nodes1: NodeTables<'a>,
    nodes2: NodeTables<'a>,
    /// `lsim` cached per leaf pair.
    leaf_lsim: SimMatrix,
    /// Mutable structural similarity per leaf pair.
    pub leaf_ssim: SimMatrix,
    strong: StrongLinks,
    /// Main-pass weighted similarities.
    pub node_wsim: SimMatrix,
    pub stats: TreeMatchStats,
    /// Scratch of [`scale_runs`].
    runs: Vec<(usize, usize)>,
}

/// Number of [`DataType`]s.
const DATA_TYPES: usize = DataType::Complex as usize + 1;

impl<'a> Workspace<'a> {
    pub fn new(
        t1: &'a SchemaTree,
        t2: &'a SchemaTree,
        lsim: &'a LsimTable,
        cfg: &'a CupidConfig,
    ) -> Self {
        let (nl1, nl2) = (t1.leaf_count(), t2.leaf_count());
        let mut ws = Workspace {
            t1,
            t2,
            lsim,
            cfg,
            nodes1: NodeTables::new(t1, cfg.leaf_depth_limit),
            nodes2: NodeTables::new(t2, cfg.leaf_depth_limit),
            leaf_lsim: SimMatrix::zeros(nl1, nl2),
            leaf_ssim: SimMatrix::zeros(nl1, nl2),
            strong: StrongLinks { rows: BitMatrix::new(nl1, nl2), cols: BitMatrix::new(nl2, nl1) },
            node_wsim: SimMatrix::zeros(t1.len(), t2.len()),
            stats: TreeMatchStats::default(),
            runs: Vec::new(),
        };
        let leaves2: Vec<(usize, DataType)> = (0..nl2)
            .map(|y| t2.node(t2.leaf_node(y as u32)))
            .map(|n| (n.element.index(), n.data_type))
            .collect();
        // `TypeCompatibility::compat` once per data-type pair of the run,
        // on first use (NaN: not read yet).
        let mut compat = [[f64::NAN; DATA_TYPES]; DATA_TYPES];
        let (w, th) = (cfg.w_struct_leaf, cfg.th_accept);
        for x in 0..nl1 {
            let nx = t1.node(t1.leaf_node(x as u32));
            let lsim_in = lsim.matrix().row(nx.element.index());
            let compat_row = &mut compat[nx.data_type as usize];
            let (lsim_row, ssim_row) = (ws.leaf_lsim.row_mut(x), ws.leaf_ssim.row_mut(x));
            for (y, &(e2, dt2)) in leaves2.iter().enumerate() {
                let c = &mut compat_row[dt2 as usize];
                if c.is_nan() {
                    *c = cfg.type_compat.compat(nx.data_type, dt2);
                }
                lsim_row[y] = lsim_in[e2];
                ssim_row[y] = *c;
                ws.strong.set(x, y, weighted(w, ssim_row[y], lsim_row[y]) >= th);
            }
        }
        ws
    }

    /// Recompute the strong-link flag of a leaf pair. A *strong link*
    /// means `wsim(x,y) ≥ thaccept` — a potentially acceptable mapping.
    #[inline]
    pub fn refresh_strong(&mut self, x: usize, y: usize) {
        let wsim =
            weighted(self.cfg.w_struct_leaf, self.leaf_ssim.get(x, y), self.leaf_lsim.get(x, y));
        self.strong.set(x, y, wsim >= self.cfg.th_accept);
    }

    /// `increase-/decrease-struct-similarity(leaves(s), leaves(t), f)`
    /// ([`scale_runs`]). Updates always use the *full* leaf sets of the
    /// subtrees, even if `ssim` counting is depth-limited.
    fn scale_leaves(&mut self, s: usize, t: usize, factor: f64) {
        let node = NodeId::from_index;
        let (ls, lt) = (self.t1.leaves(node(s)), self.t2.leaves(node(t)));
        let (ssim, strong, runs) = (&mut self.leaf_ssim, &mut self.strong, &mut self.runs);
        let f = (factor, self.cfg.w_struct_leaf, self.cfg.th_accept);
        scale_runs(ssim, &self.leaf_lsim, strong, ls, lt, f, runs);
    }

    /// Leaf-count ratio pruning (§6): skip pairs whose subtree leaf counts
    /// differ by more than the configured factor.
    #[inline]
    pub fn pruned(&self, s: usize, t: usize) -> bool {
        let Some(r) = self.cfg.leaf_ratio_prune else { return false };
        let (a, b) = (self.nodes1.leaf_count[s], self.nodes2.leaf_count[t]);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        hi > r * lo
    }

    /// Leaf and strong-link counts of a node pair: the operands of its
    /// structural similarity, and what an explanation reports.
    pub fn link_counts(&self, s: usize, t: usize) -> LinkCounts {
        let (m1, m2) = (self.nodes1.mask(s), self.nodes2.mask(t));
        let optionality = self.cfg.use_optionality;
        let mut c = LinkCounts::default();
        for x in ones(m1) {
            c.source_leaves += 1;
            if intersects(self.strong.rows.row(x), m2) {
                c.source_links += 1;
            } else if optionality && !self.nodes1.required(s, x) {
                c.dropped += 1;
            }
        }
        for y in ones(m2) {
            c.target_leaves += 1;
            if intersects(self.strong.cols.row(y), m1) {
                c.target_links += 1;
            } else if optionality && !self.nodes2.required(t, y) {
                c.dropped += 1;
            }
        }
        c
    }

    /// `(ssim, wsim)` of a leaf × leaf pair, read from the leaf matrices.
    #[inline]
    fn leaf_score(&self, x: usize, y: usize) -> (f64, f64) {
        let ssim = self.leaf_ssim.get(x, y);
        (ssim, weighted(self.cfg.w_struct_leaf, ssim, self.leaf_lsim.get(x, y)))
    }

    /// `(ssim, wsim)` of any other node pair, `None` if leaf-count ratio
    /// pruning skips it: `ssim` is the fraction of leaves with a strong
    /// link into the other subtree.
    fn node_score(&self, s: usize, t: usize) -> Option<(f64, f64)> {
        let both_leaves = self.nodes1.leaf[s].is_some() && self.nodes2.leaf[t].is_some();
        if !both_leaves && self.pruned(s, t) {
            return None;
        }
        let c = self.link_counts(s, t);
        let den = c.source_leaves + c.target_leaves - c.dropped;
        let num = c.source_links + c.target_links;
        let ssim = if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let lsim = self.lsim.get(self.nodes1.element[s], self.nodes2.element[t]);
        Some((ssim, weighted(self.cfg.w_struct_for(both_leaves), ssim, lsim)))
    }

    /// Record a compared pair's main-pass `wsim` and return the factor
    /// its leaves are scaled by, if any.
    #[inline]
    fn reinforcement(&mut self, s: usize, t: usize, wsim: f64) -> Option<f64> {
        self.node_wsim.set(s, t, wsim);
        self.stats.compared_pairs += 1;
        // Figure 3 uses strict inequalities; the strictness matters: a
        // structurally-perfect but linguistically-unsupported pair lands
        // exactly on wstruct·1.0 = th_high and must *not* be reinforced,
        // otherwise wrong contexts (POBillTo vs DeliverTo) get boosted.
        if wsim > self.cfg.th_high {
            self.stats.increases += 1;
            Some(self.cfg.c_inc)
        } else if wsim < self.cfg.th_low {
            self.stats.decreases += 1;
            Some(self.cfg.c_dec)
        } else {
            None
        }
    }

    /// The inner loop of Figure 3 for source node `s`: every target node
    /// in post-order. A leaf × leaf pair takes the direct step, which
    /// changes only its own cell.
    pub fn process_source(&mut self, s: NodeId) {
        let s = s.index();
        let source_leaf = self.nodes1.leaf[s];
        for &t in self.t2.post_order() {
            let t = t.index();
            if let (Some(x), Some(y)) = (source_leaf, self.nodes2.leaf[t]) {
                let (_, wsim) = self.leaf_score(x, y);
                if let Some(factor) = self.reinforcement(s, t, wsim) {
                    self.leaf_ssim.scale_clamped(x, y, factor);
                    self.refresh_strong(x, y);
                }
            } else if let Some((_, wsim)) = self.node_score(s, t) {
                if let Some(factor) = self.reinforcement(s, t, wsim) {
                    self.scale_leaves(s, t, factor);
                }
            } else {
                self.stats.pruned_pairs += 1;
            }
        }
    }

    /// The eager main pass: both loops in post-order. The orders are
    /// borrowed straight from the trees (which outlive `self`), not
    /// cloned per run.
    pub fn run_main_pass(&mut self) {
        for &s in self.t1.post_order() {
            self.process_source(s);
        }
    }

    /// The mapping-stage recomputation (§7): with leaf similarities now
    /// final, recompute `ssim`/`wsim` for every pair (no more updates).
    fn final_matrices(&self) -> (SimMatrix, SimMatrix) {
        let mut ssim = SimMatrix::zeros(self.t1.len(), self.t2.len());
        let mut wsim = SimMatrix::zeros(self.t1.len(), self.t2.len());
        for s in 0..self.t1.len() {
            for t in 0..self.t2.len() {
                let score = match (self.nodes1.leaf[s], self.nodes2.leaf[t]) {
                    (Some(x), Some(y)) => Some(self.leaf_score(x, y)),
                    _ => self.node_score(s, t),
                };
                if let Some((sv, wv)) = score {
                    ssim.set(s, t, sv);
                    wsim.set(s, t, wv);
                }
            }
        }
        (ssim, wsim)
    }

    pub fn into_result(self) -> TreeMatchResult {
        let (ssim, wsim) = self.final_matrices();
        TreeMatchResult { leaf_ssim: self.leaf_ssim, ssim, wsim, stats: self.stats }
    }

    /// [`Workspace::into_result`] that keeps the workspace, whose
    /// main-pass state an explanation reads afterwards.
    pub fn result(&self) -> TreeMatchResult {
        let (ssim, wsim) = self.final_matrices();
        TreeMatchResult { leaf_ssim: self.leaf_ssim.clone(), ssim, wsim, stats: self.stats }
    }
}

/// The row kernel of `increase-/decrease-struct-similarity` over the
/// leaf pairs `sources × targets`. Each maximal run of consecutive
/// target leaves (a plain subtree has one, a join view can have several)
/// is a row slice: per source leaf, scale and clamp the `leaf_ssim`
/// slice by `factor`, pack the strong flags `wsim ≥ th` one 64-bit word
/// at a time, and write only the flags that change. Each cell keeps its
/// float operations, so values and flags are the per-cell loop's bits.
/// `runs` is scratch.
fn scale_runs(
    leaf_ssim: &mut SimMatrix,
    leaf_lsim: &SimMatrix,
    strong: &mut StrongLinks,
    sources: &[u32],
    targets: &[u32],
    (factor, w, th): (f64, f64, f64),
    runs: &mut Vec<(usize, usize)>,
) {
    runs.clear();
    let run = |r: &[u32]| (r[0] as usize, r[r.len() - 1] as usize + 1);
    runs.extend(targets.chunk_by(|&a, &b| b == a + 1).map(run));
    for &x in sources {
        let x = x as usize;
        let (ssim_row, lsim_row) = (leaf_ssim.row_mut(x), leaf_lsim.row(x));
        for &(start, end) in runs.iter() {
            let mut lo = start;
            while lo < end {
                let hi = end.min((lo / 64 + 1) * 64);
                let (ssim, lsim) = (&mut ssim_row[lo..hi], &lsim_row[lo..hi]);
                let mut flags = 0u64;
                for (b, (v, &l)) in ssim.iter_mut().zip(lsim).enumerate() {
                    *v = (*v * factor).clamp(0.0, 1.0);
                    flags |= u64::from(weighted(w, *v, l) >= th) << b;
                }
                let shift = lo % 64;
                let mask = (u64::MAX >> (64 - (hi - lo))) << shift;
                strong.set_word(x, lo / 64, mask, flags << shift);
                lo = hi;
            }
        }
    }
}

/// Run TreeMatch eagerly over two expanded schema trees.
pub fn tree_match(
    t1: &SchemaTree,
    t2: &SchemaTree,
    lsim: &LsimTable,
    cfg: &CupidConfig,
) -> TreeMatchResult {
    let mut ws = Workspace::new(t1, t2, lsim, cfg);
    ws.run_main_pass();
    ws.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linguistic::analyze;
    use cupid_lexical::{Thesaurus, ThesaurusBuilder};
    use cupid_model::{expand, DataType, ElementKind, ExpandOptions, Schema, SchemaBuilder};

    fn customer(name: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        b.atomic(c, "CustomerNumber", ElementKind::Attribute, DataType::Int);
        b.atomic(c, "Name", ElementKind::Attribute, DataType::String);
        b.atomic(c, "Address", ElementKind::Attribute, DataType::String);
        b.build().unwrap()
    }

    fn run(s1: &Schema, s2: &Schema, t: &Thesaurus) -> (TreeMatchResult, Vec<String>, Vec<String>) {
        let cfg = CupidConfig::default();
        let tr1 = expand(s1, &ExpandOptions::none()).unwrap();
        let tr2 = expand(s2, &ExpandOptions::none()).unwrap();
        let la = analyze(s1, s2, t, &cfg);
        let res = tree_match(&tr1, &tr2, &la.lsim, &cfg);
        let p1 = tr1.iter().map(|(id, _)| tr1.path(id).to_string()).collect();
        let p2 = tr2.iter().map(|(id, _)| tr2.path(id).to_string()).collect();
        (res, p1, p2)
    }

    #[test]
    fn identical_schemas_leaves_bind() {
        let s1 = customer("Schema1");
        let s2 = customer("Schema2");
        let t = Thesaurus::with_default_stopwords();
        let cfg = CupidConfig::default();
        let tr1 = expand(&s1, &ExpandOptions::none()).unwrap();
        let tr2 = expand(&s2, &ExpandOptions::none()).unwrap();
        let la = analyze(&s1, &s2, &t, &cfg);
        let res = tree_match(&tr1, &tr2, &la.lsim, &cfg);

        // matching leaf pairs end with higher wsim than non-matching.
        let name1 = tr1.find_path("Schema1.Customer.Name").unwrap();
        let name2 = tr2.find_path("Schema2.Customer.Name").unwrap();
        let addr2 = tr2.find_path("Schema2.Customer.Address").unwrap();
        let w_good = res.wsim.get(name1.index(), name2.index());
        let w_bad = res.wsim.get(name1.index(), addr2.index());
        assert!(w_good >= cfg.th_accept, "wsim(Name,Name) = {w_good}");
        assert!(w_bad < w_good, "Name/Address {w_bad} !< Name/Name {w_good}");

        // the Customer classes structurally match
        let c1 = tr1.find_path("Schema1.Customer").unwrap();
        let c2 = tr2.find_path("Schema2.Customer").unwrap();
        assert!(res.ssim.get(c1.index(), c2.index()) > 0.9);
    }

    #[test]
    fn context_binding_via_ancestor_boost() {
        // Figure 2's insight: City under POBillTo must bind to City under
        // InvoiceTo (synonym Bill≈Invoice), not to City under DeliverTo.
        let thesaurus = ThesaurusBuilder::new()
            .synonym("Invoice", "Bill", 1.0)
            .synonym("Ship", "Deliver", 1.0)
            .abbreviation("PO", &["purchase", "order"])
            .build()
            .unwrap();
        let mut b = SchemaBuilder::new("PO");
        for part in ["POShipTo", "POBillTo"] {
            let p = b.structured(b.root(), part, ElementKind::XmlElement);
            b.atomic(p, "Street", ElementKind::XmlElement, DataType::String);
            b.atomic(p, "City", ElementKind::XmlElement, DataType::String);
        }
        let s1 = b.build().unwrap();
        let mut b = SchemaBuilder::new("PurchaseOrder");
        for part in ["DeliverTo", "InvoiceTo"] {
            let p = b.structured(b.root(), part, ElementKind::XmlElement);
            b.atomic(p, "Street", ElementKind::XmlElement, DataType::String);
            b.atomic(p, "City", ElementKind::XmlElement, DataType::String);
        }
        let s2 = b.build().unwrap();

        let cfg = CupidConfig::default();
        let tr1 = expand(&s1, &ExpandOptions::none()).unwrap();
        let tr2 = expand(&s2, &ExpandOptions::none()).unwrap();
        let la = analyze(&s1, &s2, &thesaurus, &cfg);
        let res = tree_match(&tr1, &tr2, &la.lsim, &cfg);

        let bill_city = tr1.find_path("PO.POBillTo.City").unwrap();
        let invoice_city = tr2.find_path("PurchaseOrder.InvoiceTo.City").unwrap();
        let deliver_city = tr2.find_path("PurchaseOrder.DeliverTo.City").unwrap();
        let w_invoice = res.wsim.get(bill_city.index(), invoice_city.index());
        let w_deliver = res.wsim.get(bill_city.index(), deliver_city.index());
        assert!(
            w_invoice > w_deliver,
            "POBillTo.City should bind to InvoiceTo.City ({w_invoice}) over DeliverTo.City ({w_deliver})"
        );
        // and symmetric for ship/deliver
        let ship_city = tr1.find_path("PO.POShipTo.City").unwrap();
        let w_ship_deliver = res.wsim.get(ship_city.index(), deliver_city.index());
        let w_ship_invoice = res.wsim.get(ship_city.index(), invoice_city.index());
        assert!(w_ship_deliver > w_ship_invoice);
    }

    #[test]
    fn leaf_ratio_pruning_skips_lopsided_pairs() {
        let mut b = SchemaBuilder::new("Big");
        let t = b.structured(b.root(), "T", ElementKind::XmlElement);
        for i in 0..10 {
            b.atomic(t, format!("A{i}"), ElementKind::XmlElement, DataType::String);
        }
        let s1 = b.build().unwrap();
        let mut b = SchemaBuilder::new("Small");
        let t = b.structured(b.root(), "T", ElementKind::XmlElement);
        b.atomic(t, "A0", ElementKind::XmlElement, DataType::String);
        let s2 = b.build().unwrap();
        let (res, _, _) = run(&s1, &s2, &Thesaurus::with_default_stopwords());
        assert!(res.stats.pruned_pairs > 0);
    }

    #[test]
    fn optionality_softens_unmatched_optional_leaves() {
        // s1: E{a, b}; s2: E{a, b, c?}. With optionality, unmatched
        // optional c drops from the denominator.
        let build = |with_c: bool, optional: bool| {
            let mut b = SchemaBuilder::new("S");
            let e = b.structured(b.root(), "E", ElementKind::XmlElement);
            b.atomic(e, "Amount", ElementKind::XmlElement, DataType::String);
            b.atomic(e, "Brand", ElementKind::XmlElement, DataType::String);
            if with_c {
                let c = b.atomic(e, "Comment", ElementKind::XmlElement, DataType::String);
                b.set_optional(c, optional);
            }
            b.build().unwrap()
        };
        let s1 = build(false, false);
        let s2_opt = build(true, true);
        let s2_req = build(true, false);
        let thesaurus = Thesaurus::with_default_stopwords();
        let cfg = CupidConfig::default();
        let tr1 = expand(&s1, &ExpandOptions::none()).unwrap();

        let ssim_with = |s2: &Schema| {
            let tr2 = expand(s2, &ExpandOptions::none()).unwrap();
            let la = analyze(&s1, s2, &thesaurus, &cfg);
            let res = tree_match(&tr1, &tr2, &la.lsim, &cfg);
            let e1 = tr1.find_path("S.E").unwrap();
            let e2 = tr2.find_path("S.E").unwrap();
            res.ssim.get(e1.index(), e2.index())
        };
        let with_optional = ssim_with(&s2_opt);
        let with_required = ssim_with(&s2_req);
        assert!(
            with_optional > with_required,
            "optional unmatched leaf should hurt less: {with_optional} vs {with_required}"
        );
        // optional case: 2+2 linked out of (2 + 3 - 1 dropped) = 4/4 = 1.
        assert!((with_optional - 1.0).abs() < 1e-9);
    }

    #[test]
    fn increase_clamps_at_one() {
        let s1 = customer("A");
        let s2 = customer("B");
        let (res, _, _) = run(&s1, &s2, &Thesaurus::with_default_stopwords());
        for (_, _, v) in res.leaf_ssim.iter() {
            assert!((0.0..=1.0).contains(&v), "leaf ssim out of range: {v}");
        }
        assert!(res.stats.increases > 0);
    }

    #[test]
    fn bit_matrix_set_get_clear() {
        // Three words per row: bits at word boundaries stay in their row.
        let mut m = BitMatrix::new(3, 130);
        [(0, 0), (1, 63), (1, 64), (2, 129), (1, 63)].into_iter().for_each(|(i, j)| m.set(i, j));
        assert!(m.get(0, 0) && m.get(1, 63) && m.get(1, 64) && m.get(2, 129));
        assert!(!m.get(0, 64) && !m.get(1, 0) && !m.get(2, 128));
        m.flip(1, 64);
        assert!(!m.get(1, 64) && m.get(1, 63));
    }

    #[test]
    fn bit_matrix_rows_intersect_across_words() {
        let mut m = BitMatrix::new(2, 200);
        m.set(1, 150);
        assert!(!intersects(m.row(0), m.row(1)));
        m.set(0, 150);
        assert!(intersects(m.row(0), m.row(1)));
    }

    #[test]
    fn bit_matrix_ones_iterate_ascending() {
        let mut m = BitMatrix::new(2, 130);
        [129, 64, 63, 129].into_iter().for_each(|j| m.set(1, j));
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), [63, 64, 129]);
        m.flip(1, 64);
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), [63, 129]);
    }

    #[test]
    fn bit_matrix_zero_width_rows_are_empty() {
        let m = BitMatrix::new(4, 0);
        assert!(m.row(3).is_empty() && ones(m.row(3)).next().is_none());
        let m = BitMatrix::new(2, 65);
        assert!(ones(m.row(1)).next().is_none());
    }

    #[test]
    fn strong_links_keep_the_transpose_in_step() {
        let mut s = StrongLinks { rows: BitMatrix::new(2, 70), cols: BitMatrix::new(70, 2) };
        s.set(1, 69, true);
        s.set(1, 69, true);
        assert!(s.rows.get(1, 69) && s.cols.get(69, 1));
        s.set(1, 69, false);
        assert!(!s.rows.get(1, 69) && !s.cols.get(69, 1));
    }

    /// The per-cell loop [`scale_runs`] replaced.
    fn scale_cells(
        (ssim, lsim, strong): (&mut SimMatrix, &SimMatrix, &mut StrongLinks),
        (sources, targets): (&[u32], &[u32]),
        (factor, w, th): (f64, f64, f64),
    ) {
        for (&x, &y) in sources.iter().flat_map(|x| targets.iter().map(move |y| (x, y))) {
            let (x, y) = (x as usize, y as usize);
            let v = (ssim.get(x, y) * factor).clamp(0.0, 1.0);
            ssim.set(x, y, v);
            strong.set(x, y, weighted(w, v, lsim.get(x, y)) >= th);
        }
    }

    #[test]
    fn row_kernel_matches_the_per_cell_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (rows, cols, all) = (12, 200, 0..200u32);
        let mut targets: Vec<Vec<u32>> = vec![
            all.clone().collect(),                          // one run over every word
            vec![5],                                        // a one-cell run
            (60..70).collect(),                             // crosses a word boundary
            (40..64).collect(),                             // ends at bit 63
            vec![0, 1, 2, 63, 64, 100, 127, 128, 129, 199], // several runs
            all.clone().filter(|y| y % 3 != 0).collect(),   // many short runs
        ];
        targets.extend((0..6).map(|_| all.clone().filter(|_| next() % 4 != 0).collect()));
        let cfg = CupidConfig::default();
        // c_inc, c_dec, c_dec = 0, and factors that clamp at 1 and at 0.
        for factor in [cfg.c_inc, cfg.c_dec, 0.0, 3.0, -0.5] {
            for (case, lt) in targets.iter().enumerate() {
                let (mut ssim, mut lsim) =
                    (SimMatrix::zeros(rows, cols), SimMatrix::zeros(rows, cols));
                let (r, c) = (BitMatrix::new(rows, cols), BitMatrix::new(cols, rows));
                let mut strong = StrongLinks { rows: r, cols: c };
                for (x, y) in (0..rows).flat_map(|x| (0..cols).map(move |y| (x, y))) {
                    ssim.set(x, y, (next() % 1001) as f64 / 1000.0);
                    lsim.set(x, y, (next() % 1001) as f64 / 1000.0);
                    strong.set(x, y, next() % 2 == 0);
                }
                let ls: Vec<u32> = (0..rows as u32).filter(|_| next() % 3 != 0).collect();
                let f = (factor, cfg.w_struct_leaf, cfg.th_accept);
                let (mut want_ssim, mut want_strong) = (ssim.clone(), strong.clone());
                scale_cells((&mut want_ssim, &lsim, &mut want_strong), (&ls, lt), f);
                scale_runs(&mut ssim, &lsim, &mut strong, &ls, lt, f, &mut Vec::new());
                let bits =
                    |m: &SimMatrix| m.iter().map(|(_, _, v)| v.to_bits()).collect::<Vec<_>>();
                let what = format!("target set {case}, factor {factor}");
                assert_eq!(bits(&ssim), bits(&want_ssim), "{what}");
                assert_eq!(strong.rows.words, want_strong.rows.words, "{what}");
                assert_eq!(strong.cols.words, want_strong.cols.words, "{what}");
            }
        }
    }

    #[test]
    fn stats_count_compared_pairs() {
        let s1 = customer("A");
        let s2 = customer("B");
        let (res, p1, p2) = run(&s1, &s2, &Thesaurus::with_default_stopwords());
        assert!(res.stats.compared_pairs + res.stats.pruned_pairs == p1.len() * p2.len());
    }
}
