//! Schema-tree construction (§8.2, Figure 4).
//!
//! Structure matching runs on a *schema tree*: the schema graph expanded
//! by type substitution, so that every containment/IsDerivedFrom path from
//! the root to an element becomes its own tree node (its own *context*).
//! This is what lets Cupid map a shared `Address` type differently under
//! `DeliverTo` and `InvoiceTo`.
//!
//! Join-view and view reification (§8.3/§8.4) later add nodes with shared
//! children, turning the tree into a DAG of schema paths; all derived data
//! (post-order, leaf sets, required-leaf sets) is computed DAG-aware.

use crate::element::{DataType, ElementId, ElementKind};
use crate::error::ModelError;
use crate::joinview::{self, ExpandOptions};
use crate::schema::Schema;
use std::fmt;
use std::sync::Arc;

/// Index of a node within a [`SchemaTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Synthetic node kinds added by reification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    /// A join view reifying a referential constraint (Figure 6).
    JoinView,
    /// A reified view definition (§8.4).
    View,
}

/// One node of the schema tree. A node is one *context* of a schema
/// element; type substitution may create several nodes per element.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The schema element this node instantiates.
    pub element: ElementId,
    /// Element name (copied for cheap access).
    pub name: String,
    /// Element kind.
    pub kind: ElementKind,
    /// Atomic data type (`Complex` for structured nodes).
    pub data_type: DataType,
    /// Whether this node is optional in this context.
    pub optional: bool,
    /// Synthetic marker for reified join views / views.
    pub synthetic: Option<SyntheticKind>,
    /// Parents; `parents[0]` is the primary (containment) parent used for
    /// path rendering. Extra parents come from reification (DAG).
    pub parents: Vec<NodeId>,
    /// Children, in schema order.
    pub children: Vec<NodeId>,
}

impl TreeNode {
    /// A node with no children (atomic content).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The expanded schema tree/DAG with precomputed traversal data.
#[derive(Debug, Clone)]
pub struct SchemaTree {
    schema_name: String,
    nodes: Vec<TreeNode>,
    root: NodeId,
    post_order: Vec<NodeId>,
    /// `post_order` without its leaves.
    nonleaf_post_order: Vec<NodeId>,
    /// Per node: sorted leaf indices reachable from it.
    leaves: Vec<Vec<u32>>,
    /// Every node's maximal runs of consecutive leaf indices, node after
    /// node; node `i`'s are `leaf_runs[run_offsets[i]..run_offsets[i + 1]]`.
    leaf_runs: Vec<(u32, u32)>,
    run_offsets: Vec<u32>,
    /// Per node: sorted leaf indices reachable via at least one path with
    /// no optional node strictly below the node (§8.4 "Optionality").
    required_leaves: Vec<Vec<u32>>,
    /// Row per node: `leaves` as bits, `leaf_count / 64` words rounded up.
    leaf_masks: Vec<u64>,
    /// Row per node: `required_leaves` as bits.
    required_masks: Vec<u64>,
    /// leaf index → node id.
    leaf_nodes: Vec<NodeId>,
    /// node id → leaf index (dense; u32::MAX when not a leaf).
    leaf_index: Vec<u32>,
    /// Depth from root via primary parents (root = 0).
    depth: Vec<u32>,
    /// Dotted context path via primary parents, shared with every result.
    paths: Vec<Arc<str>>,
}

impl SchemaTree {
    /// Name of the source schema.
    pub fn schema_name(&self) -> &str {
        &self.schema_name
    }

    /// Root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes (never true for expanded schemas).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.index()]
    }

    /// Iterate `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &TreeNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Post-order (children before parents; DAG-aware, each node once).
    /// This is the traversal order TreeMatch uses — it is *"uniquely
    /// defined for a given tree"* and deterministic for our DAGs.
    pub fn post_order(&self) -> &[NodeId] {
        &self.post_order
    }

    /// [`SchemaTree::post_order`] without its leaves.
    pub fn nonleaf_post_order(&self) -> &[NodeId] {
        &self.nonleaf_post_order
    }

    /// Sorted leaf indices under `id` (including `id` itself if a leaf).
    pub fn leaves(&self, id: NodeId) -> &[u32] {
        &self.leaves[id.index()]
    }

    /// [`SchemaTree::leaves`] of `id` as its maximal runs of consecutive
    /// leaf indices, each a half-open `(start, end)`, ascending: one run
    /// for a plain subtree, possibly several for a join view.
    pub fn leaf_runs(&self, id: NodeId) -> &[(u32, u32)] {
        let (i, o) = (id.index(), &self.run_offsets);
        &self.leaf_runs[o[i] as usize..o[i + 1] as usize]
    }

    /// Leaf indices under `id` reachable through required-only paths.
    pub fn required_leaves(&self, id: NodeId) -> &[u32] {
        &self.required_leaves[id.index()]
    }

    /// [`SchemaTree::leaves`] of `id` as a bit row: bit `l % 64` of word
    /// `l / 64` is set for each leaf index `l`.
    pub fn leaf_mask(&self, id: NodeId) -> &[u64] {
        let s = self.leaf_count().div_ceil(64);
        &self.leaf_masks[id.index() * s..(id.index() + 1) * s]
    }

    /// [`SchemaTree::required_leaves`] of `id` as a bit row.
    pub fn required_mask(&self, id: NodeId) -> &[u64] {
        let s = self.leaf_count().div_ceil(64);
        &self.required_masks[id.index() * s..(id.index() + 1) * s]
    }

    /// Total number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_nodes.len()
    }

    /// Node of a leaf index.
    pub fn leaf_node(&self, leaf: u32) -> NodeId {
        self.leaf_nodes[leaf as usize]
    }

    /// The node of every leaf, in leaf-index order.
    pub fn leaf_nodes(&self) -> &[NodeId] {
        &self.leaf_nodes
    }

    /// Leaf index of a node, if it is a leaf.
    pub fn leaf_index(&self, id: NodeId) -> Option<u32> {
        let v = self.leaf_index[id.index()];
        (v != u32::MAX).then_some(v)
    }

    /// True if the node is a leaf.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].is_leaf()
    }

    /// Depth from the root (root = 0), via primary parents.
    pub fn depth(&self, id: NodeId) -> u32 {
        self.depth[id.index()]
    }

    /// Dotted context path, e.g. `PurchaseOrder.DeliverTo.Address.Street`.
    pub fn path(&self, id: NodeId) -> &str {
        &self.paths[id.index()]
    }

    /// The same path as the shared `Arc<str>` the tree owns: clone it to
    /// name the node in a result without copying the path.
    pub fn shared_path(&self, id: NodeId) -> &Arc<str> {
        &self.paths[id.index()]
    }

    /// Find the first node whose context path equals `path`.
    pub fn find_path(&self, path: &str) -> Option<NodeId> {
        self.paths.iter().position(|p| **p == *path).map(NodeId::from_index)
    }

    /// All nodes instantiating a given element (several in case of type
    /// substitution).
    pub fn nodes_of_element(&self, element: ElementId) -> Vec<NodeId> {
        self.iter().filter(|(_, n)| n.element == element).map(|(id, _)| id).collect()
    }

    /// Leaves under `id` restricted to depth `k` below it (§8.4 "Pruning
    /// leaves"): nodes at relative depth `k` are treated as pseudo-leaves.
    /// Returns the *node ids* of the pseudo-leaf frontier.
    pub fn frontier_at_depth(&self, id: NodeId, k: u32) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![(id, 0u32)];
        let mut seen = vec![false; self.nodes.len()];
        while let Some((n, d)) = stack.pop() {
            if seen[n.index()] {
                continue;
            }
            seen[n.index()] = true;
            let node = &self.nodes[n.index()];
            if node.is_leaf() || d == k {
                if n != id || node.is_leaf() {
                    out.push(n);
                }
                continue;
            }
            for &c in node.children.iter().rev() {
                stack.push((c, d + 1));
            }
        }
        out
    }

    // --- construction (crate-internal) --------------------------------

    pub(crate) fn new_empty(schema_name: String) -> Self {
        SchemaTree {
            schema_name,
            nodes: Vec::new(),
            root: NodeId(0),
            post_order: Vec::new(),
            nonleaf_post_order: Vec::new(),
            leaves: Vec::new(),
            leaf_runs: Vec::new(),
            run_offsets: Vec::new(),
            required_leaves: Vec::new(),
            leaf_masks: Vec::new(),
            required_masks: Vec::new(),
            leaf_nodes: Vec::new(),
            leaf_index: Vec::new(),
            depth: Vec::new(),
            paths: Vec::new(),
        }
    }

    pub(crate) fn push_node(&mut self, node: TreeNode) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Set the root node (wire decoding; expansion sets it directly).
    pub(crate) fn set_root(&mut self, root: NodeId) {
        self.root = root;
    }

    pub(crate) fn link(&mut self, parent: NodeId, child: NodeId) {
        self.nodes[parent.index()].children.push(child);
        self.nodes[child.index()].parents.push(parent);
    }

    /// Recompute all derived tables. Called after base expansion, again
    /// after reification mutates the graph, and by the wire decoder.
    pub(crate) fn finalize(&mut self) {
        let n = self.nodes.len();
        // post-order DFS from root (iterative, DAG-aware)
        self.post_order.clear();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut stack: Vec<(NodeId, usize)> = vec![(self.root, 0)];
        state[self.root.index()] = 1;
        while let Some(&mut (node, ref mut ci)) = stack.last_mut() {
            let children = &self.nodes[node.index()].children;
            if *ci < children.len() {
                let c = children[*ci];
                *ci += 1;
                if state[c.index()] == 0 {
                    state[c.index()] = 1;
                    stack.push((c, 0));
                }
            } else {
                state[node.index()] = 2;
                self.post_order.push(node);
                stack.pop();
            }
        }

        // leaf numbering in post-order (≈ left-to-right)
        self.leaf_nodes.clear();
        self.nonleaf_post_order.clear();
        self.leaf_index = vec![u32::MAX; n];
        for &id in &self.post_order {
            if self.nodes[id.index()].is_leaf() {
                self.leaf_index[id.index()] = self.leaf_nodes.len() as u32;
                self.leaf_nodes.push(id);
            } else {
                self.nonleaf_post_order.push(id);
            }
        }

        // leaf sets + required leaf sets, bottom-up
        self.leaves = vec![Vec::new(); n];
        self.required_leaves = vec![Vec::new(); n];
        for &id in &self.post_order {
            let i = id.index();
            if self.nodes[i].is_leaf() {
                let li = self.leaf_index[i];
                self.leaves[i] = vec![li];
                self.required_leaves[i] = vec![li];
            } else {
                let mut all: Vec<u32> = Vec::new();
                let mut req: Vec<u32> = Vec::new();
                for &c in &self.nodes[i].children {
                    all.extend_from_slice(&self.leaves[c.index()]);
                    if !self.nodes[c.index()].optional {
                        req.extend_from_slice(&self.required_leaves[c.index()]);
                    }
                }
                all.sort_unstable();
                all.dedup();
                req.sort_unstable();
                req.dedup();
                self.leaves[i] = all;
                self.required_leaves[i] = req;
            }
        }
        let stride = self.leaf_nodes.len().div_ceil(64);
        let rows = |sets: &[Vec<u32>]| {
            let mut words = vec![0u64; n * stride];
            for (row, set) in words.chunks_exact_mut(stride.max(1)).zip(sets) {
                set.iter().for_each(|&l| row[l as usize / 64] |= 1 << (l % 64));
            }
            words
        };
        self.leaf_masks = rows(&self.leaves);
        self.required_masks = rows(&self.required_leaves);
        self.leaf_runs.clear();
        self.run_offsets = vec![0];
        for set in &self.leaves {
            let runs = set.chunk_by(|&a, &b| b == a + 1).map(|r| (r[0], r[r.len() - 1] + 1));
            self.leaf_runs.extend(runs);
            self.run_offsets.push(self.leaf_runs.len() as u32);
        }

        // depth + paths via primary parents (BFS from root over first-parent
        // relation; reification parents never become primary)
        self.depth = vec![0; n];
        self.paths = vec![Arc::from(""); n];
        // process in reverse post-order so parents come before children;
        // each path is formatted into one reused buffer, then allocated once
        let mut buf = String::new();
        for &id in self.post_order.iter().rev() {
            let i = id.index();
            buf.clear();
            if let Some(p) = self.nodes[i].parents.first().copied() {
                self.depth[i] = self.depth[p.index()] + 1;
                buf.push_str(&self.paths[p.index()]);
                buf.push('.');
            }
            buf.push_str(&self.nodes[i].name);
            self.paths[i] = Arc::from(&buf[..]);
        }
    }
}

/// Expand a schema graph into a schema tree (Figure 4), then apply the
/// requested reifications (join views, views).
///
/// Fails with [`ModelError::CycleDetected`] on recursive type definitions,
/// exactly as the paper specifies.
pub fn expand(schema: &Schema, opts: &ExpandOptions) -> Result<SchemaTree, ModelError> {
    let mut tree = SchemaTree::new_empty(schema.name().to_string());
    let mut on_stack = vec![false; schema.len()];
    let mut path: Vec<ElementId> = Vec::new();
    let root_node =
        construct(schema, schema.root(), None, true, &mut tree, &mut on_stack, &mut path)?;
    let Some(root_node) = root_node else {
        return Err(ModelError::EmptyTree);
    };
    tree.root = root_node;
    tree.finalize();
    // Reification only ever adds nodes, so an unchanged size means the
    // derived state just built is still current.
    let before = tree.len();
    joinview::reify(schema, &mut tree, opts);
    if tree.len() > before {
        tree.finalize();
    }
    Ok(tree)
}

/// Recursive worker mirroring Figure 4's `construct_schema_tree`.
///
/// `via_containment` is true when `current` was reached through a
/// containment relationship (or is the root); only then does a new tree
/// node get created. IsDerivedFrom arrivals splice the type's members into
/// the current node (type substitution).
fn construct(
    schema: &Schema,
    current: ElementId,
    mut current_stn: Option<NodeId>,
    via_containment: bool,
    tree: &mut SchemaTree,
    on_stack: &mut [bool],
    path: &mut Vec<ElementId>,
) -> Result<Option<NodeId>, ModelError> {
    if on_stack[current.index()] {
        return Err(ModelError::CycleDetected {
            at: current,
            path: path.iter().map(|e| schema.element(*e).name.clone()).collect(),
        });
    }
    let elem = schema.element(current);
    let mut created: Option<NodeId> = None;
    if via_containment {
        if elem.not_instantiated {
            return Ok(current_stn);
        }
        let node = tree.push_node(TreeNode {
            element: current,
            name: elem.name.clone(),
            kind: elem.kind,
            data_type: elem.data_type,
            optional: elem.optional,
            synthetic: None,
            parents: Vec::new(),
            children: Vec::new(),
        });
        if let Some(p) = current_stn {
            tree.link(p, node);
        }
        current_stn = Some(node);
        created = Some(node);
    }
    on_stack[current.index()] = true;
    path.push(current);
    for &child in schema.children(current) {
        construct(schema, child, current_stn, true, tree, on_stack, path)?;
    }
    for &ty in schema.derived_from(current) {
        construct(schema, ty, current_stn, false, tree, on_stack, path)?;
    }
    path.pop();
    on_stack[current.index()] = false;
    Ok(created.or(current_stn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::element::DataType;

    fn expand_plain(s: &Schema) -> SchemaTree {
        expand(s, &ExpandOptions::none()).unwrap()
    }

    /// The §8.2 example: Address shared by DeliverTo and InvoiceTo.
    fn shared_address_schema() -> Schema {
        let mut b = SchemaBuilder::new("PurchaseOrder");
        let addr_t = b.type_def("Address");
        b.atomic(addr_t, "Street", ElementKind::XmlElement, DataType::String);
        b.atomic(addr_t, "City", ElementKind::XmlElement, DataType::String);
        let deliver = b.structured(b.root(), "DeliverTo", ElementKind::XmlElement);
        let invoice = b.structured(b.root(), "InvoiceTo", ElementKind::XmlElement);
        b.derive_from(deliver, addr_t);
        b.derive_from(invoice, addr_t);
        b.build().unwrap()
    }

    #[test]
    fn simple_tree_mirrors_containment() {
        let mut b = SchemaBuilder::new("PO");
        let lines = b.structured(b.root(), "Lines", ElementKind::XmlElement);
        let item = b.structured(lines, "Item", ElementKind::XmlElement);
        b.atomic(item, "Line", ElementKind::XmlAttribute, DataType::Int);
        b.atomic(item, "Qty", ElementKind::XmlAttribute, DataType::Int);
        let t = expand_plain(&b.build().unwrap());
        assert_eq!(t.len(), 5);
        assert!(t.find_path("PO.Lines.Item.Qty").is_some());
        assert_eq!(t.leaf_count(), 2);
        // post-order: leaves before parents, root last
        assert_eq!(*t.post_order().last().unwrap(), t.root());
    }

    #[test]
    fn type_substitution_duplicates_shared_members() {
        let t = expand_plain(&shared_address_schema());
        // Street and City appear once under DeliverTo and once under
        // InvoiceTo; the Address type itself is not instantiated.
        assert!(t.find_path("PurchaseOrder.DeliverTo.Street").is_some());
        assert!(t.find_path("PurchaseOrder.DeliverTo.City").is_some());
        assert!(t.find_path("PurchaseOrder.InvoiceTo.Street").is_some());
        assert!(t.find_path("PurchaseOrder.InvoiceTo.City").is_some());
        assert_eq!(t.leaf_count(), 4);
        // 1 root + 2 contexts × (1 parent + 2 leaves)... parents are
        // DeliverTo/InvoiceTo themselves: 1 + 2 + 4 = 7 nodes.
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn multi_level_derivation() {
        // USAddress specializes Address (§8.1 example): an element typed
        // USAddress inherits Street from Address.
        let mut b = SchemaBuilder::new("S");
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::XmlElement, DataType::String);
        let us = b.type_def("USAddress");
        b.atomic(us, "ZipCode", ElementKind::XmlElement, DataType::String);
        b.derive_from(us, addr);
        let ship = b.structured(b.root(), "ShipTo", ElementKind::XmlElement);
        b.derive_from(ship, us);
        let t = expand_plain(&b.build().unwrap());
        assert!(t.find_path("S.ShipTo.ZipCode").is_some());
        assert!(t.find_path("S.ShipTo.Street").is_some());
    }

    #[test]
    fn recursive_types_fail() {
        let mut b = SchemaBuilder::new("S");
        let part = b.type_def("Part");
        let sub = b.structured(part, "SubPart", ElementKind::XmlElement);
        b.derive_from(sub, part); // Part contains SubPart which IS-A Part
        let e = b.structured(b.root(), "Root", ElementKind::XmlElement);
        b.derive_from(e, part);
        let err = expand(&b.build().unwrap(), &ExpandOptions::none()).unwrap_err();
        assert!(matches!(err, ModelError::CycleDetected { .. }));
    }

    #[test]
    fn not_instantiated_elements_skipped() {
        let mut bld = SchemaBuilder::new("RDB");
        let t1 = bld.table("Orders");
        let oid = bld.column(t1, "OrderID", DataType::Int);
        bld.primary_key(t1, &[oid]);
        let t = expand_plain(&bld.build().unwrap());
        // Root, Orders, OrderID — the pk Key element is not a node.
        assert_eq!(t.len(), 3);
        assert!(t.find_path("RDB.Orders.OrderID").is_some());
    }

    #[test]
    fn optionality_and_required_leaves() {
        let mut b = SchemaBuilder::new("S");
        let e = b.structured(b.root(), "E", ElementKind::XmlElement);
        let req = b.atomic(e, "Req", ElementKind::XmlAttribute, DataType::String);
        let opt = b.atomic(e, "Opt", ElementKind::XmlAttribute, DataType::String);
        b.set_optional(opt, true);
        let og = b.structured(b.root(), "OptGroup", ElementKind::XmlElement);
        b.set_optional(og, true);
        b.atomic(og, "Inner", ElementKind::XmlAttribute, DataType::String);
        let _ = req;
        let t = expand_plain(&b.build().unwrap());
        let root = t.root();
        assert_eq!(t.leaves(root).len(), 3);
        // Only "Req" is reachable all-required from the root.
        let req_paths: Vec<&str> =
            t.required_leaves(root).iter().map(|&l| t.path(t.leaf_node(l))).collect();
        assert_eq!(req_paths, ["S.E.Req"]);
        // From E's own perspective, Req is required, Opt is optional.
        let e_node = t.find_path("S.E").unwrap();
        assert_eq!(t.required_leaves(e_node).len(), 1);
        assert_eq!(t.leaves(e_node).len(), 2);
        // "Inner" is required *relative to OptGroup* (no optional node
        // strictly below OptGroup).
        let og_node = t.find_path("S.OptGroup").unwrap();
        assert_eq!(t.required_leaves(og_node).len(), 1);
    }

    #[test]
    fn post_order_children_before_parents() {
        let t = expand_plain(&shared_address_schema());
        let pos: std::collections::HashMap<NodeId, usize> =
            t.post_order().iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for (id, node) in t.iter() {
            for &c in &node.children {
                assert!(pos[&c] < pos[&id], "child {c} must precede parent {id}");
            }
        }
        assert_eq!(t.post_order().len(), t.len());
    }

    #[test]
    fn frontier_at_depth() {
        let mut b = SchemaBuilder::new("S");
        let a = b.structured(b.root(), "A", ElementKind::XmlElement);
        let bb = b.structured(a, "B", ElementKind::XmlElement);
        b.atomic(bb, "C", ElementKind::XmlAttribute, DataType::String);
        let t = expand_plain(&b.build().unwrap());
        let root = t.root();
        let f1 = t.frontier_at_depth(root, 1);
        assert_eq!(f1.len(), 1);
        assert_eq!(t.path(f1[0]), "S.A");
        let f9 = t.frontier_at_depth(root, 9);
        assert_eq!(t.path(f9[0]), "S.A.B.C");
    }

    #[test]
    fn depths() {
        let t = expand_plain(&shared_address_schema());
        assert_eq!(t.depth(t.root()), 0);
        let street = t.find_path("PurchaseOrder.DeliverTo.Street").unwrap();
        assert_eq!(t.depth(street), 2);
    }
}
