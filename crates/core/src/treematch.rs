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
//! A run keeps its state flat (DESIGN.md §11.3). The leaf and
//! required-leaf masks, leaf runs and traversal orders are the trees' own
//! tables ([`SchemaTree::leaf_mask`], [`SchemaTree::leaf_runs`]), and the
//! strong-link table is one row-major bit matrix, so every link count is
//! a popcount over two bit sets built from its rows.

use cupid_model::{DataType, NodeId, SchemaTree};

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
    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    #[cfg(test)]
    fn get(&self, i: usize, j: usize) -> bool {
        (self.row(i)[j / 64] >> (j % 64)) & 1 == 1
    }

    /// Set bit `(i, j)` to `on`.
    #[inline]
    fn set(&mut self, i: usize, j: usize, on: bool) {
        let (word, b) = (&mut self.words[i * self.stride + j / 64], j % 64);
        *word = *word & !(1 << b) | u64::from(on) << b;
    }

    /// OR row `src` into row `dst`.
    fn or_row(&mut self, dst: usize, src: usize) {
        for wi in 0..self.stride {
            self.words[dst * self.stride + wi] |= self.words[src * self.stride + wi];
        }
    }
}

/// OR `src` into `dst`, word by word.
#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    dst.iter_mut().zip(src).for_each(|(d, &s)| *d |= s);
}

/// True if two rows share a set bit.
#[inline]
fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&a, &b)| a & b != 0)
}

/// Indices of the set bits of a row, ascending.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let (mut wi, mut w) = (0, row.first().copied().unwrap_or(0));
    std::iter::from_fn(move || {
        while w == 0 {
            wi += 1;
            w = *row.get(wi)?;
        }
        let b = w.trailing_zeros() as usize;
        w &= w - 1;
        Some(wi * 64 + b)
    })
}

/// `w·ssim + (1−w)·lsim`: the one weighted-similarity formula of every
/// step, so every step rounds alike.
#[inline]
fn weighted(w: f64, ssim: f64, lsim: f64) -> f64 {
    w * ssim + (1.0 - w) * lsim
}

#[inline]
fn node(i: usize) -> NodeId {
    NodeId::from_index(i)
}

/// Leaf-count ratio pruning (§6) of two subtrees of `a` and `b` leaves:
/// true if their counts differ by more than the factor `r`.
#[inline]
fn ratio_pruned(r: Option<f64>, a: f64, b: f64) -> bool {
    let Some(r) = r else { return false };
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    hi > r * lo
}

/// The leaves under each node of one tree that a run's `ssim` counts.
struct Masks<'a> {
    tree: &'a SchemaTree,
    /// Row per node under a configured `leaf_depth_limit`. Without one,
    /// the tree's own leaf masks.
    limited: Option<BitMatrix>,
}

impl<'a> Masks<'a> {
    fn new(tree: &'a SchemaTree, depth_limit: Option<u32>) -> Self {
        // Leaves within k levels of each node (§8.4 "Pruning leaves").
        // Internal frontier nodes at depth k simply cut deeper leaves off.
        let limited = depth_limit.map(|k| {
            let mut masks = BitMatrix::new(tree.len(), tree.leaf_count());
            for i in 0..tree.len() {
                let frontier = tree.frontier_at_depth(node(i), k);
                let leaves = frontier.into_iter().filter_map(|f| tree.leaf_index(f));
                leaves.for_each(|l| masks.set(i, l as usize, true));
            }
            masks
        });
        Masks { tree, limited }
    }

    /// Row of node `i`: the leaves its `ssim` counts.
    #[inline]
    fn mask(&self, i: usize) -> &[u64] {
        match &self.limited {
            Some(masks) => masks.row(i),
            None => self.tree.leaf_mask(node(i)),
        }
    }
}

/// Leaf and strong-link counts of a node pair over its two leaf masks.
#[derive(Debug, Default, PartialEq)]
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

impl LinkCounts {
    /// The structural similarity of the pair: the fraction of its leaves
    /// with a strong link into the other subtree.
    fn ssim(&self) -> f64 {
        let den = self.source_leaves + self.target_leaves - self.dropped;
        let num = self.source_links + self.target_links;
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }
}

/// The two "linked" sets of the node pair with masks `m1` and `m2`, in one
/// pass over `m1`: `linked1`, the source leaves of `m1` whose strong row
/// meets `m2`, and `linked2`, the OR of the strong rows over `m1`.
fn link_sets(strong: &BitMatrix, (m1, m2): (&[u64], &[u64]), (l1, l2): (&mut [u64], &mut [u64])) {
    l1.fill(0);
    l2.fill(0);
    for x in ones(m1) {
        let row = strong.row(x);
        l1[x / 64] |= u64::from(intersects(row, m2)) << (x % 64);
        or_into(l2, row);
    }
}

/// The one link-count rule (DESIGN.md §11.3). `linked1` holds at least
/// the source leaves of `m1` with a strong link into `m2`, and no other
/// leaf of `m1`; `linked2` likewise for the target leaves of `m2`. Each
/// side counts `|mask|`, `|mask ∧ linked|` and, with required masks
/// (optionality), `|mask ∧ ¬linked ∧ ¬required|`.
fn count_links(
    (m1, m2): (&[u64], &[u64]),
    (linked1, linked2): (&[u64], &[u64]),
    required: Option<(&[u64], &[u64])>,
) -> LinkCounts {
    let side = |mask: &[u64], linked: &[u64], required: Option<&[u64]>| {
        let (mut leaves, mut links, mut dropped) = (0, 0, 0);
        for (i, (&m, &l)) in mask.iter().zip(linked).enumerate() {
            leaves += m.count_ones() as usize;
            links += (m & l).count_ones() as usize;
            if let Some(req) = required {
                dropped += (m & !l & !req[i]).count_ones() as usize;
            }
        }
        (leaves, links, dropped)
    };
    let (source_leaves, source_links, d1) = side(m1, linked1, required.map(|r| r.0));
    let (target_leaves, target_links, d2) = side(m2, linked2, required.map(|r| r.1));
    LinkCounts { source_leaves, target_leaves, source_links, target_links, dropped: d1 + d2 }
}

/// Shared state of a TreeMatch run. `pub(crate)` so the lazy-expansion
/// driver ([`crate::lazy`]) and [`crate::explain`] reuse the exact same
/// primitives.
pub(crate) struct Workspace<'a> {
    t1: &'a SchemaTree,
    t2: &'a SchemaTree,
    lsim: &'a LsimTable,
    cfg: &'a CupidConfig,
    masks1: Masks<'a>,
    masks2: Masks<'a>,
    /// `lsim` cached per leaf pair.
    leaf_lsim: SimMatrix,
    /// Mutable structural similarity per leaf pair.
    pub leaf_ssim: SimMatrix,
    /// Row x: the target leaves with a strong link from source leaf x.
    /// Every flag equals `weighted(w_struct_leaf, ssim, lsim) ≥
    /// th_accept` for its cell.
    strong: BitMatrix,
    /// Main-pass weighted similarities.
    pub node_wsim: SimMatrix,
    pub stats: TreeMatchStats,
    /// The non-leaf targets a leaf source compares, in post-order: those
    /// whose leaf count is within the pruning ratio of one.
    leaf_source_targets: Vec<NodeId>,
    /// Scratch of [`link_sets`] in the main pass: source, target leaves.
    linked: (Vec<u64>, Vec<u64>),
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
        let r = cfg.leaf_ratio_prune;
        let leaf_source_targets = (t2.nonleaf_post_order().iter().copied())
            .filter(|&t| !ratio_pruned(r, 1.0, t2.leaves(t).len() as f64))
            .collect();
        let mut ws = Workspace {
            t1,
            t2,
            lsim,
            cfg,
            masks1: Masks::new(t1, cfg.leaf_depth_limit),
            masks2: Masks::new(t2, cfg.leaf_depth_limit),
            leaf_lsim: SimMatrix::zeros(nl1, nl2),
            leaf_ssim: SimMatrix::zeros(nl1, nl2),
            strong: BitMatrix::new(nl1, nl2),
            node_wsim: SimMatrix::zeros(t1.len(), t2.len()),
            stats: TreeMatchStats::default(),
            leaf_source_targets,
            linked: (vec![0; nl1.div_ceil(64)], vec![0; nl2.div_ceil(64)]),
        };
        let leaves2: Vec<(usize, DataType)> = (t2.leaf_nodes().iter())
            .map(|&id| t2.node(id))
            .map(|n| (n.element.index(), n.data_type))
            .collect();
        // `TypeCompatibility::compat` once per data-type pair of the run,
        // on first use (NaN: not read yet).
        let mut compat = [[f64::NAN; DATA_TYPES]; DATA_TYPES];
        let (w, th) = (cfg.w_struct_leaf, cfg.th_accept);
        for (x, &id) in t1.leaf_nodes().iter().enumerate() {
            let nx = t1.node(id);
            let lsim_in = lsim.matrix().row(nx.element.index());
            let compat_row = &mut compat[nx.data_type as usize];
            let (lsim_row, ssim_row) = (ws.leaf_lsim.row_mut(x), ws.leaf_ssim.row_mut(x));
            for (wi, word) in ws.strong.row_mut(x).iter_mut().enumerate() {
                let mut flags = 0u64;
                for (b, y) in (wi * 64..nl2.min(wi * 64 + 64)).enumerate() {
                    let (e2, dt2) = leaves2[y];
                    let c = &mut compat_row[dt2 as usize];
                    if c.is_nan() {
                        *c = cfg.type_compat.compat(nx.data_type, dt2);
                    }
                    (lsim_row[y], ssim_row[y]) = (lsim_in[e2], *c);
                    flags |= u64::from(weighted(w, *c, lsim_in[e2]) >= th) << b;
                }
                *word = flags;
            }
        }
        ws
    }

    /// Recompute the strong-link flag of a leaf pair. A *strong link*
    /// means `wsim(x,y) ≥ thaccept` — a potentially acceptable mapping.
    #[inline]
    pub fn refresh_strong(&mut self, x: usize, y: usize) {
        let (_, wsim) = self.leaf_score(x, y);
        self.strong.set(x, y, wsim >= self.cfg.th_accept);
    }

    /// `increase-/decrease-struct-similarity(leaves(s), leaves(t), f)`
    /// ([`scale_runs`]). Updates always use the *full* leaf sets of the
    /// subtrees, even if `ssim` counting is depth-limited.
    fn scale_leaves(&mut self, s: usize, t: usize, factor: f64) {
        let (ls, lt) = (self.t1.leaves(node(s)), self.t2.leaf_runs(node(t)));
        let f = (factor, self.cfg.w_struct_leaf, self.cfg.th_accept);
        scale_runs(&mut self.leaf_ssim, &self.leaf_lsim, &mut self.strong, ls, lt, f);
    }

    /// Leaf-count ratio pruning (§6): skip pairs whose subtree leaf counts
    /// differ by more than the configured factor.
    #[inline]
    pub fn pruned(&self, s: usize, t: usize) -> bool {
        let (a, b) = (self.t1.leaves(node(s)).len(), self.t2.leaves(node(t)).len());
        ratio_pruned(self.cfg.leaf_ratio_prune, a as f64, b as f64)
    }

    /// Whether non-leaf source `s` skips every leaf target: the ratio test
    /// against a one-leaf subtree, decided once per node.
    #[inline]
    fn skips_leaf_targets(&self, s: usize) -> bool {
        ratio_pruned(self.cfg.leaf_ratio_prune, self.t1.leaves(node(s)).len() as f64, 1.0)
    }

    /// [`count_links`] of the pair `(s, t)` over the given linked sets.
    fn counts(&self, s: usize, t: usize, linked: (&[u64], &[u64])) -> LinkCounts {
        let required = self
            .cfg
            .use_optionality
            .then(|| (self.t1.required_mask(node(s)), self.t2.required_mask(node(t))));
        count_links((self.masks1.mask(s), self.masks2.mask(t)), linked, required)
    }

    /// Leaf and strong-link counts of a node pair: the operands of its
    /// structural similarity, and what an explanation reports.
    pub fn link_counts(&self, s: usize, t: usize) -> LinkCounts {
        let (mut l1, mut l2) = (vec![0; self.linked.0.len()], vec![0; self.linked.1.len()]);
        let masks = (self.masks1.mask(s), self.masks2.mask(t));
        link_sets(&self.strong, masks, (&mut l1, &mut l2));
        self.counts(s, t, (&l1, &l2))
    }

    /// `(ssim, wsim)` of a leaf × leaf pair, read from the leaf matrices.
    #[inline]
    fn leaf_score(&self, x: usize, y: usize) -> (f64, f64) {
        let ssim = self.leaf_ssim.get(x, y);
        (ssim, weighted(self.cfg.w_struct_leaf, ssim, self.leaf_lsim.get(x, y)))
    }

    /// `(ssim, wsim)` of any other node pair from its link counts.
    fn node_score(&self, s: usize, t: usize, counts: &LinkCounts) -> (f64, f64) {
        let ssim = counts.ssim();
        let lsim = self.lsim.get(self.t1.node(node(s)).element, self.t2.node(node(t)).element);
        (ssim, weighted(self.cfg.w_struct, ssim, lsim))
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

    /// The general step of Figure 3, for a compared pair that is not
    /// leaf × leaf: the link fraction over the current strong links, then
    /// reinforcement of `leaves(s) × leaves(t)`.
    fn general_step(&mut self, s: usize, t: usize) {
        let masks = (self.masks1.mask(s), self.masks2.mask(t));
        link_sets(&self.strong, masks, (&mut self.linked.0, &mut self.linked.1));
        let counts = self.counts(s, t, (&self.linked.0, &self.linked.1));
        let (_, wsim) = self.node_score(s, t, &counts);
        if let Some(factor) = self.reinforcement(s, t, wsim) {
            self.scale_leaves(s, t, factor);
        }
    }

    /// The direct leaf × leaf step of Figure 3 for source leaf `x` (node
    /// `s`) against every target leaf, in leaf order: each cell's `wsim`
    /// from its own `ssim` and `lsim`, reinforcement of that cell alone,
    /// and its strong flag packed into the row one word at a time.
    fn leaf_row(&mut self, s: usize, x: usize) {
        let cfg = self.cfg;
        let (w, th) = (cfg.w_struct_leaf, cfg.th_accept);
        let (ssim, lsim) = (self.leaf_ssim.row_mut(x), self.leaf_lsim.row(x));
        let (wsim, targets) = (self.node_wsim.row_mut(s), self.t2.leaf_nodes());
        let (mut increases, mut decreases) = (0, 0);
        for (wi, word) in self.strong.row_mut(x).iter_mut().enumerate() {
            let cells = wi * 64..lsim.len().min(wi * 64 + 64);
            let mut flags = 0u64;
            for (b, y) in cells.enumerate() {
                let (v, l) = (&mut ssim[y], lsim[y]);
                let score = weighted(w, *v, l);
                wsim[targets[y].index()] = score;
                if score > cfg.th_high {
                    increases += 1;
                    *v = (*v * cfg.c_inc).clamp(0.0, 1.0);
                } else if score < cfg.th_low {
                    decreases += 1;
                    *v = (*v * cfg.c_dec).clamp(0.0, 1.0);
                }
                flags |= u64::from(weighted(w, *v, l) >= th) << b;
            }
            *word = flags;
        }
        self.stats.compared_pairs += lsim.len();
        self.stats.increases += increases;
        self.stats.decreases += decreases;
    }

    /// The inner loop of Figure 3 for source node `s`.
    ///
    /// A leaf source runs its whole leaf row first ([`Workspace::leaf_row`]),
    /// then the non-leaf targets within the pruning ratio in post-order.
    /// That gives the bits of the plain post-order walk: a non-leaf `t`
    /// reads and scales only cells `(x, y)` with `y ∈ leaves(t)`, every
    /// such `y` precedes `t` in post-order, and a leaf step touches only
    /// its own cell, so every cell sees the same operations in the same
    /// order.
    ///
    /// A non-leaf source walks the targets in post-order, leaves included
    /// unless the ratio test prunes them all.
    pub fn process_source(&mut self, s: NodeId) {
        let (s, t2) = (s.index(), self.t2);
        if let Some(x) = self.t1.leaf_index(node(s)) {
            self.leaf_row(s, x as usize);
            for i in 0..self.leaf_source_targets.len() {
                self.general_step(s, self.leaf_source_targets[i].index());
            }
            let compared = self.leaf_source_targets.len();
            self.stats.pruned_pairs += t2.nonleaf_post_order().len() - compared;
            return;
        }
        let targets = if self.skips_leaf_targets(s) {
            self.stats.pruned_pairs += t2.leaf_count();
            t2.nonleaf_post_order()
        } else {
            t2.post_order()
        };
        for &t in targets {
            let t = t.index();
            if t2.leaf_index(node(t)).is_none() && self.pruned(s, t) {
                self.stats.pruned_pairs += 1;
            } else {
                self.general_step(s, t);
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

    /// The linked sets of every node once the strong table is final:
    /// `into1[s]`, the OR of the strong rows over `mask(s)`, and
    /// `into2[t]`, the source leaves whose row meets `mask(t)`. A target
    /// leaf's `into2` row holds the source leaves linked to it, so every
    /// other node's row is the OR of its mask's leaf rows.
    fn linked_tables(&self) -> (BitMatrix, BitMatrix) {
        let (t1, t2) = (self.t1, self.t2);
        let mut into1 = BitMatrix::new(t1.len(), t2.leaf_count());
        for s in 0..t1.len() {
            let row = into1.row_mut(s);
            ones(self.masks1.mask(s)).for_each(|x| or_into(row, self.strong.row(x)));
        }
        let (mut into2, leaves2) = (BitMatrix::new(t2.len(), t1.leaf_count()), t2.leaf_nodes());
        for x in 0..t1.leaf_count() {
            ones(self.strong.row(x)).for_each(|y| into2.set(leaves2[y].index(), x, true));
        }
        for &t in t2.nonleaf_post_order() {
            ones(self.masks2.mask(t.index()))
                .for_each(|y| into2.or_row(t.index(), leaves2[y].index()));
        }
        (into1, into2)
    }

    /// The mapping-stage recomputation (§7): with leaf similarities now
    /// final, recompute `ssim`/`wsim` for every pair the main pass
    /// compared (no more updates), leaf × leaf row by row and every other
    /// pair's counts from [`Workspace::linked_tables`].
    fn final_matrices(&self) -> (SimMatrix, SimMatrix) {
        let (t1, t2) = (self.t1, self.t2);
        let (into1, into2) = self.linked_tables();
        let mut ssim = SimMatrix::zeros(t1.len(), t2.len());
        let mut wsim = SimMatrix::zeros(t1.len(), t2.len());
        let w = self.cfg.w_struct_leaf;
        for (x, s) in t1.leaf_nodes().iter().enumerate() {
            let (ssim_in, lsim_in) = (self.leaf_ssim.row(x), self.leaf_lsim.row(x));
            let (ssim_row, wsim_row) = (ssim.row_mut(s.index()), wsim.row_mut(s.index()));
            for (y, t) in t2.leaf_nodes().iter().enumerate() {
                ssim_row[t.index()] = ssim_in[y];
                wsim_row[t.index()] = weighted(w, ssim_in[y], lsim_in[y]);
            }
        }
        let mut score = |s: usize, t: usize| {
            let counts = self.counts(s, t, (into2.row(t), into1.row(s)));
            let (sv, wv) = self.node_score(s, t, &counts);
            ssim.set(s, t, sv);
            wsim.set(s, t, wv);
        };
        for &s in t1.leaf_nodes() {
            self.leaf_source_targets.iter().for_each(|t| score(s.index(), t.index()));
        }
        for &s in t1.nonleaf_post_order() {
            let s = s.index();
            if !self.skips_leaf_targets(s) {
                t2.leaf_nodes().iter().for_each(|t| score(s, t.index()));
            }
            for &t in t2.nonleaf_post_order() {
                if !self.pruned(s, t.index()) {
                    score(s, t.index());
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
/// leaf pairs `sources × runs`. Each run of consecutive target leaves
/// ([`SchemaTree::leaf_runs`]: a plain subtree has one, a join view can
/// have several) is a row slice: per source leaf, scale and clamp the
/// `leaf_ssim` slice by `factor`, pack the strong flags `wsim ≥ th` one
/// 64-bit word at a time, and write them under the run's mask. Each cell
/// keeps its float operations, so values and flags are the per-cell
/// loop's bits.
fn scale_runs(
    leaf_ssim: &mut SimMatrix,
    leaf_lsim: &SimMatrix,
    strong: &mut BitMatrix,
    sources: &[u32],
    runs: &[(u32, u32)],
    (factor, w, th): (f64, f64, f64),
) {
    for &x in sources {
        let x = x as usize;
        let (ssim_row, lsim_row) = (leaf_ssim.row_mut(x), leaf_lsim.row(x));
        let strong_row = strong.row_mut(x);
        for &(start, end) in runs {
            let (mut lo, end) = (start as usize, end as usize);
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
                let word = &mut strong_row[lo / 64];
                *word = *word & !mask | flags << shift;
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
    use cupid_model::{
        expand, DataType, ElementId, ElementKind, ExpandOptions, Schema, SchemaBuilder,
    };

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
        for (i, j) in [(0, 0), (1, 63), (1, 64), (2, 129), (1, 63)] {
            m.set(i, j, true);
        }
        assert!(m.get(0, 0) && m.get(1, 63) && m.get(1, 64) && m.get(2, 129));
        assert!(!m.get(0, 64) && !m.get(1, 0) && !m.get(2, 128));
        m.set(1, 64, false);
        assert!(!m.get(1, 64) && m.get(1, 63));
    }

    #[test]
    fn bit_matrix_rows_intersect_across_words() {
        let mut m = BitMatrix::new(2, 200);
        m.set(1, 150, true);
        assert!(!intersects(m.row(0), m.row(1)));
        m.set(0, 150, true);
        assert!(intersects(m.row(0), m.row(1)));
    }

    #[test]
    fn bit_matrix_ones_iterate_ascending() {
        let mut m = BitMatrix::new(2, 130);
        [129, 64, 63, 129].into_iter().for_each(|j| m.set(1, j, true));
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), [63, 64, 129]);
        m.set(1, 64, false);
        assert_eq!(ones(m.row(1)).collect::<Vec<_>>(), [63, 129]);
    }

    #[test]
    fn bit_matrix_zero_width_rows_are_empty() {
        let m = BitMatrix::new(4, 0);
        assert!(m.row(3).is_empty() && ones(m.row(3)).next().is_none());
        let m = BitMatrix::new(2, 65);
        assert!(ones(m.row(1)).next().is_none());
    }

    /// A xorshift generator, so every kernel test below is seeded.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// The per-cell loop [`scale_runs`] replaced.
    fn scale_cells(
        (ssim, lsim, strong): (&mut SimMatrix, &SimMatrix, &mut BitMatrix),
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
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        let (rows, cols, all) = (12, 200, 0..200u32);
        let mut targets: Vec<Vec<u32>> = vec![
            all.clone().collect(),                          // one run over every word
            vec![5],                                        // a one-cell run
            (60..70).collect(),                             // crosses a word boundary
            (40..64).collect(),                             // ends at bit 63
            vec![0, 1, 2, 63, 64, 100, 127, 128, 129, 199], // several runs
            all.clone().filter(|y| y % 3 != 0).collect(),   // many short runs
        ];
        targets.extend((0..6).map(|_| all.clone().filter(|_| !next().is_multiple_of(4)).collect()));
        let cfg = CupidConfig::default();
        // c_inc, c_dec, c_dec = 0, and factors that clamp at 1 and at 0.
        for factor in [cfg.c_inc, cfg.c_dec, 0.0, 3.0, -0.5] {
            for (case, lt) in targets.iter().enumerate() {
                let (mut ssim, mut lsim) =
                    (SimMatrix::zeros(rows, cols), SimMatrix::zeros(rows, cols));
                let mut strong = BitMatrix::new(rows, cols);
                for (x, y) in (0..rows).flat_map(|x| (0..cols).map(move |y| (x, y))) {
                    ssim.set(x, y, (next() % 1001) as f64 / 1000.0);
                    lsim.set(x, y, (next() % 1001) as f64 / 1000.0);
                    strong.set(x, y, next().is_multiple_of(2));
                }
                let ls: Vec<u32> = (0..rows as u32).filter(|_| !next().is_multiple_of(3)).collect();
                let runs: Vec<(u32, u32)> =
                    lt.chunk_by(|&a, &b| b == a + 1).map(|r| (r[0], r[r.len() - 1] + 1)).collect();
                let f = (factor, cfg.w_struct_leaf, cfg.th_accept);
                let (mut want_ssim, mut want_strong) = (ssim.clone(), strong.clone());
                scale_cells((&mut want_ssim, &lsim, &mut want_strong), (&ls, lt), f);
                scale_runs(&mut ssim, &lsim, &mut strong, &ls, &runs, f);
                let bits =
                    |m: &SimMatrix| m.iter().map(|(_, _, v)| v.to_bits()).collect::<Vec<_>>();
                let what = format!("target set {case}, factor {factor}");
                assert_eq!(bits(&ssim), bits(&want_ssim), "{what}");
                assert_eq!(strong.words, want_strong.words, "{what}");
            }
        }
    }

    /// A seeded schema of `leaves` leaves in nested groups, with optional
    /// groups and leaves, over a few data types.
    fn seeded_schema(name: &str, leaves: usize, next: &mut impl FnMut() -> u64) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let mut groups = vec![b.root()];
        for i in 0..leaves {
            if next().is_multiple_of(3) {
                let parent = groups[next() as usize % groups.len()];
                let g = b.structured(parent, format!("G{i}"), ElementKind::XmlElement);
                b.set_optional(g, next().is_multiple_of(4));
                groups.push(g);
            }
            let parent = groups[next() as usize % groups.len()];
            let types = [DataType::String, DataType::Int, DataType::Decimal, DataType::Date];
            let dt = types[next() as usize % types.len()];
            let a = b.atomic(parent, format!("A{i}"), ElementKind::XmlElement, dt);
            b.set_optional(a, next().is_multiple_of(5));
        }
        b.build().unwrap()
    }

    /// Pairs of seeded trees whose strong rows and linked sets span one,
    /// two and three words, with a seeded `lsim` table per pair.
    fn seeded_pairs() -> Vec<(SchemaTree, SchemaTree, LsimTable)> {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        let mut out = Vec::new();
        for (n1, n2) in [(24, 50), (70, 100), (150, 140), (140, 20)] {
            let (s1, s2) = (seeded_schema("S", n1, &mut next), seeded_schema("T", n2, &mut next));
            let mut lsim = LsimTable::zeros(s1.len(), s2.len());
            for (e1, e2) in (0..s1.len()).flat_map(|i| (0..s2.len()).map(move |j| (i, j))) {
                let (e1, e2) = (ElementId::from_index(e1), ElementId::from_index(e2));
                lsim.set(e1, e2, (next() % 1001) as f64 / 1000.0);
            }
            let (t1, t2) =
                (expand(&s1, &ExpandOptions::none()), expand(&s2, &ExpandOptions::none()));
            out.push((t1.unwrap(), t2.unwrap(), lsim));
        }
        out
    }

    /// The configuration corners of the kernel tests: pruning on and off,
    /// full and depth-limited masks, optionality on and off.
    fn kernel_configs() -> Vec<CupidConfig> {
        let mut out = Vec::new();
        for (prune, depth, optionality) in [
            (Some(2.0), None, true),
            (None, None, true),
            (Some(2.0), None, false),
            (Some(2.0), Some(1), true),
            (None, Some(2), false),
        ] {
            let mut cfg = CupidConfig::default();
            (cfg.leaf_ratio_prune, cfg.leaf_depth_limit) = (prune, depth);
            cfg.use_optionality = optionality;
            out.push(cfg);
        }
        out
    }

    /// The per-leaf count loop the popcount rule replaced: each source
    /// leaf of `mask(s)` tests its strong row against `mask(t)`, and each
    /// target leaf of `mask(t)` its column against `mask(s)`.
    fn link_counts_per_leaf(ws: &Workspace<'_>, s: usize, t: usize) -> LinkCounts {
        let (m1, m2) = (ws.masks1.mask(s), ws.masks2.mask(t));
        let required = |mask: &[u64], l: usize| (mask[l / 64] >> (l % 64)) & 1 == 1;
        let optionality = ws.cfg.use_optionality;
        let mut c = LinkCounts::default();
        for x in ones(m1) {
            c.source_leaves += 1;
            if intersects(ws.strong.row(x), m2) {
                c.source_links += 1;
            } else if optionality && !required(ws.t1.required_mask(node(s)), x) {
                c.dropped += 1;
            }
        }
        for y in ones(m2) {
            c.target_leaves += 1;
            if ones(m1).any(|x| ws.strong.get(x, y)) {
                c.target_links += 1;
            } else if optionality && !required(ws.t2.required_mask(node(t)), y) {
                c.dropped += 1;
            }
        }
        c
    }

    /// Seed a workspace's `leaf_ssim` so that both reinforcements and
    /// both strong states occur, keeping every flag equal to its cell's
    /// `wsim ≥ th_accept`.
    fn seed_leaf_ssim(ws: &mut Workspace<'_>, next: &mut impl FnMut() -> u64) {
        let (rows, cols) = (ws.leaf_ssim.rows(), ws.leaf_ssim.cols());
        for (x, y) in (0..rows).flat_map(|x| (0..cols).map(move |y| (x, y))) {
            ws.leaf_ssim.set(x, y, (next() % 1001) as f64 / 1000.0);
            ws.refresh_strong(x, y);
        }
    }

    #[test]
    fn popcount_counts_match_the_per_leaf_reference() {
        let mut next = xorshift(0x6a09_e667_f3bc_c908);
        for (t1, t2, lsim) in &seeded_pairs() {
            for cfg in &kernel_configs() {
                let mut ws = Workspace::new(t1, t2, lsim, cfg);
                seed_leaf_ssim(&mut ws, &mut next);
                let (into1, into2) = ws.linked_tables();
                for (s, t) in (0..t1.len()).flat_map(|s| (0..t2.len()).map(move |t| (s, t))) {
                    let want = link_counts_per_leaf(&ws, s, t);
                    let what =
                        format!("{}×{} leaves, pair ({s}, {t})", t1.leaf_count(), t2.leaf_count());
                    assert_eq!(ws.link_counts(s, t), want, "{what}, one pass over mask(s)");
                    let tables = ws.counts(s, t, (into2.row(t), into1.row(s)));
                    assert_eq!(tables, want, "{what}, per-node tables");
                }
            }
        }
    }

    /// The per-target step of Figure 3 the row pass replaced: every
    /// target in post-order, each pair counted per leaf and scaled per
    /// cell.
    fn process_source_per_target(ws: &mut Workspace<'_>, s: usize) {
        let (t1, t2) = (ws.t1, ws.t2);
        for &t in t2.post_order() {
            let t = t.index();
            match (t1.leaf_index(node(s)), t2.leaf_index(node(t))) {
                (Some(x), Some(y)) => {
                    let (x, y) = (x as usize, y as usize);
                    let (_, wsim) = ws.leaf_score(x, y);
                    if let Some(factor) = ws.reinforcement(s, t, wsim) {
                        ws.leaf_ssim.scale_clamped(x, y, factor);
                        ws.refresh_strong(x, y);
                    }
                }
                _ if ws.pruned(s, t) => ws.stats.pruned_pairs += 1,
                _ => {
                    let counts = link_counts_per_leaf(ws, s, t);
                    let (_, wsim) = ws.node_score(s, t, &counts);
                    if let Some(factor) = ws.reinforcement(s, t, wsim) {
                        let (ls, lt) = (t1.leaves(node(s)), t2.leaves(node(t)));
                        let f = (factor, ws.cfg.w_struct_leaf, ws.cfg.th_accept);
                        let state = (&mut ws.leaf_ssim, &ws.leaf_lsim, &mut ws.strong);
                        scale_cells(state, (ls, lt), f);
                    }
                }
            }
        }
    }

    #[test]
    fn row_pass_matches_the_per_target_reference() {
        let bits =
            |m: &SimMatrix, r: usize| m.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (t1, t2, lsim) in &seeded_pairs() {
            for cfg in &kernel_configs() {
                let (mut got, mut want) =
                    (Workspace::new(t1, t2, lsim, cfg), Workspace::new(t1, t2, lsim, cfg));
                let mut next = xorshift(0xbb67_ae85_84ca_a73b);
                seed_leaf_ssim(&mut got, &mut next);
                let mut next = xorshift(0xbb67_ae85_84ca_a73b);
                seed_leaf_ssim(&mut want, &mut next);
                for &s in t1.post_order() {
                    got.process_source(s);
                    process_source_per_target(&mut want, s.index());
                    let what =
                        format!("{}×{} leaves, source {s}", t1.leaf_count(), t2.leaf_count());
                    for x in 0..t1.leaf_count() {
                        assert_eq!(bits(&got.leaf_ssim, x), bits(&want.leaf_ssim, x), "{what}");
                    }
                    assert_eq!(got.strong.words, want.strong.words, "{what}");
                    assert_eq!(bits(&got.node_wsim, s.index()), bits(&want.node_wsim, s.index()));
                    assert_eq!(got.stats, want.stats, "{what}");
                }
                assert!(got.stats.increases > 0 && got.stats.decreases > 0);
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
