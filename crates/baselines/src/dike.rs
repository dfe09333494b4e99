//! A DIKE-style matcher (§9, ref \[12\]).
//!
//! DIKE integrates ER schemas by exploiting *"the principle that the
//! similarity of schema elements depends on the similarity of elements in
//! their vicinity. The relevance of elements is inversely proportional to
//! their distance from the elements being compared"*. Pairwise
//! similarities are seeded from the LSPD (Lexical Synonymy Property
//! Dictionary), data domains and keyness, then iteratively re-evaluated
//! from distance-decayed neighborhood evidence; entities and attributes
//! whose final similarity clears a threshold are merged into the
//! abstracted schema.
//!
//! Faithful behavioural properties (verified against §9.1/§9.2):
//! * identical names merge without any LSPD input;
//! * renamed attributes need LSPD entries (canonical test 3, footnote a);
//! * entities with renamed class names still merge through their
//!   vicinity (test 4) and across nesting differences (test 5);
//! * shared types are single graph nodes, so context-dependent mappings
//!   are impossible (test 6 = No) and one greedy merge swallows
//!   `Address`, leaving `POBillTo`/`POShipTo` without partners in the
//!   Figure-7 run — exactly the confusion the paper reports.

use std::collections::HashMap;

use cupid_lexical::stem::stem;
use cupid_model::{ElementId, ElementKind, Schema};

/// The Lexical Synonymy Property Dictionary: name-pair similarity
/// coefficients supplied by the user. The paper's CIDX–Excel run used
/// entries *"similar to the linguistic similarity coefficients computed
/// by Cupid"* — see [`Lspd::from_pairs`] and the eval crate's adapter.
#[derive(Debug, Clone, Default)]
pub struct Lspd {
    entries: HashMap<(String, String), f64>,
}

fn canon_name(name: &str) -> String {
    // lower-case + light stemming per token boundary is overkill here;
    // DIKE matched whole names, so canonicalize the whole identifier.
    stem(&name.to_lowercase()).into_owned()
}

fn key(a: &str, b: &str) -> (String, String) {
    let (a, b) = (canon_name(a), canon_name(b));
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Lspd {
    /// Build from `(name, name, coefficient)` triples.
    pub fn from_pairs<I, S1, S2>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S1, S2, f64)>,
        S1: AsRef<str>,
        S2: AsRef<str>,
    {
        let mut l = Lspd::default();
        for (a, b, c) in pairs {
            l.insert(a.as_ref(), b.as_ref(), c);
        }
        l
    }

    /// Insert an entry (symmetric), clamped to `[0,1]`.
    pub fn insert(&mut self, a: &str, b: &str, coefficient: f64) {
        self.entries.insert(key(a, b), coefficient.clamp(0.0, 1.0));
    }

    /// Lexical similarity of two names: exact canonical equality is 1.0,
    /// otherwise the dictionary entry, otherwise 0.
    pub fn lookup(&self, a: &str, b: &str) -> f64 {
        if canon_name(a) == canon_name(b) {
            return 1.0;
        }
        self.entries.get(&key(a, b)).copied().unwrap_or(0.0)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// DIKE control parameters.
#[derive(Debug, Clone)]
pub struct DikeConfig {
    /// Weight of the seed (LSPD/domain) similarity for *attribute* pairs;
    /// the complement comes from the vicinity. Attributes are
    /// name-dominated in DIKE.
    pub attr_seed_weight: f64,
    /// Seed weight for *entity* pairs; entities are vicinity-dominated
    /// (that is how test 4 merges `Customer` with `Person`).
    pub entity_seed_weight: f64,
    /// Per-distance decay of vicinity influence (*"nearby elements
    /// influence a match more than ones farther away"*).
    pub decay: f64,
    /// Maximum vicinity distance considered.
    pub max_distance: usize,
    /// Fixpoint iterations.
    pub iterations: usize,
    /// Similarity needed to merge a pair into the abstracted schema.
    pub merge_threshold: f64,
    /// Bonus when both attributes are key members ("keyness").
    pub keyness_bonus: f64,
    /// Weight of data-domain compatibility in the attribute seed.
    pub domain_weight: f64,
}

impl Default for DikeConfig {
    fn default() -> Self {
        DikeConfig {
            attr_seed_weight: 0.7,
            entity_seed_weight: 0.2,
            decay: 0.5,
            max_distance: 2,
            iterations: 4,
            merge_threshold: 0.5,
            keyness_bonus: 0.05,
            domain_weight: 0.15,
        }
    }
}

/// Node classification in DIKE's ER view of a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeKind {
    /// Has containment children: models an ER entity.
    Entity,
    /// Non-leaf without own children (e.g. an element that only
    /// references shared types): modeled as an ER *relationship* in the
    /// paper's first remodeling; not merged directly.
    Relationship,
    /// A leaf: an ER attribute.
    Attribute,
    /// Keys/foreign keys/views: invisible to DIKE.
    Skip,
}

/// One matched pair in the abstracted schema.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedPair {
    /// Containment path in schema 1.
    pub source_path: String,
    /// Containment path in schema 2.
    pub target_path: String,
    /// Final similarity.
    pub similarity: f64,
}

/// DIKE's output: the merge decisions of the abstracted schema.
#[derive(Debug, Clone, Default)]
pub struct DikeResult {
    /// Merged entity pairs (greedy 1:1, descending similarity).
    pub merged_entities: Vec<MergedPair>,
    /// Merged attribute pairs (greedy 1:1).
    pub merged_attributes: Vec<MergedPair>,
}

impl DikeResult {
    /// True if the entity pair was merged.
    pub fn has_entity(&self, source_path: &str, target_path: &str) -> bool {
        self.merged_entities
            .iter()
            .any(|m| m.source_path == source_path && m.target_path == target_path)
    }

    /// True if the attribute pair was merged.
    pub fn has_attribute(&self, source_path: &str, target_path: &str) -> bool {
        self.merged_attributes
            .iter()
            .any(|m| m.source_path == source_path && m.target_path == target_path)
    }
}

/// The DIKE matcher.
#[derive(Debug, Clone, Default)]
pub struct Dike {
    config: DikeConfig,
}

struct Side {
    ids: Vec<ElementId>,
    kinds: Vec<NodeKind>,
    /// neighbors at distance exactly d (1-based: index 0 = distance 1).
    neighborhoods: Vec<Vec<Vec<usize>>>,
    paths: Vec<String>,
}

fn classify(schema: &Schema, id: ElementId) -> NodeKind {
    let e = schema.element(id);
    match e.kind {
        ElementKind::Key | ElementKind::ForeignKey | ElementKind::View => NodeKind::Skip,
        _ => {
            // The paper's first ER remodeling (§9.2): "we first chose to
            // model the root elements and all XML-elements that had any
            // attributes, as entities (and so DeliverTo and InvoiceTo are
            // relationships)". An element is an entity iff it is a root
            // or directly carries atomic attributes; purely structural
            // elements become relationships.
            let has_leaf_child = schema
                .children(id)
                .iter()
                .any(|&ch| schema.children(ch).is_empty() && schema.derived_from(ch).is_empty());
            if schema.parent(id).is_none() || has_leaf_child {
                NodeKind::Entity
            } else if !schema.children(id).is_empty()
                || e.data_type == cupid_model::DataType::Complex
                || !schema.derived_from(id).is_empty()
            {
                NodeKind::Relationship
            } else {
                NodeKind::Attribute
            }
        }
    }
}

fn build_side(schema: &Schema, max_distance: usize) -> Side {
    let n = schema.len();
    let ids: Vec<ElementId> = schema.iter().map(|(id, _)| id).collect();
    let kinds: Vec<NodeKind> = ids.iter().map(|&id| classify(schema, id)).collect();
    // adjacency over containment + derivation + aggregation + references
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, _) in schema.iter() {
        let i = id.index();
        if let Some(p) = schema.parent(id) {
            adj[i].push(p.index());
            adj[p.index()].push(i);
        }
        for &t in schema.derived_from(id) {
            adj[i].push(t.index());
            adj[t.index()].push(i);
        }
        for &t in schema.aggregates(id) {
            adj[i].push(t.index());
            adj[t.index()].push(i);
        }
        for &t in schema.references(id) {
            adj[i].push(t.index());
            adj[t.index()].push(i);
        }
    }
    // BFS rings up to max_distance per node
    let mut neighborhoods = Vec::with_capacity(n);
    for start in 0..n {
        let mut rings: Vec<Vec<usize>> = vec![Vec::new(); max_distance];
        let mut dist = vec![usize::MAX; n];
        dist[start] = 0;
        let mut frontier = vec![start];
        for d in 1..=max_distance {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = d;
                        next.push(v);
                        if kinds[v] != NodeKind::Skip {
                            rings[d - 1].push(v);
                        }
                    }
                }
            }
            frontier = next;
        }
        neighborhoods.push(rings);
    }
    let paths = ids.iter().map(|&id| schema.containment_path(id)).collect();
    Side { ids, kinds, neighborhoods, paths }
}

impl Dike {
    /// Matcher with default parameters.
    pub fn new() -> Self {
        Dike::default()
    }

    /// Matcher with custom parameters.
    pub fn with_config(config: DikeConfig) -> Self {
        Dike { config }
    }

    /// Run DIKE over two schemas with the given LSPD.
    pub fn run(&self, s1: &Schema, s2: &Schema, lspd: &Lspd) -> DikeResult {
        let cfg = &self.config;
        let a = build_side(s1, cfg.max_distance);
        let b = build_side(s2, cfg.max_distance);
        let (n1, n2) = (a.ids.len(), b.ids.len());

        // seed similarities
        let mut seed = vec![0.0f64; n1 * n2];
        for i in 0..n1 {
            if a.kinds[i] == NodeKind::Skip || a.kinds[i] == NodeKind::Relationship {
                continue;
            }
            let e1 = s1.element(a.ids[i]);
            for j in 0..n2 {
                if a.kinds[i] != b.kinds[j] {
                    continue;
                }
                let e2 = s2.element(b.ids[j]);
                let base = lspd.lookup(&e1.name, &e2.name);
                let v = match a.kinds[i] {
                    NodeKind::Attribute => {
                        let domain = domain_compat(e1.data_type, e2.data_type);
                        let keyness = if e1.is_key && e2.is_key { cfg.keyness_bonus } else { 0.0 };
                        ((1.0 - cfg.domain_weight) * base + cfg.domain_weight * domain + keyness)
                            .min(1.0)
                    }
                    _ => base,
                };
                seed[i * n2 + j] = v;
            }
        }

        // fixpoint re-evaluation
        let mut sim = seed.clone();
        let ring_weights: Vec<f64> = {
            let raw: Vec<f64> = (1..=cfg.max_distance).map(|d| cfg.decay.powi(d as i32)).collect();
            let total: f64 = raw.iter().sum();
            raw.into_iter().map(|w| w / total).collect()
        };
        for _ in 0..cfg.iterations {
            let mut next = vec![0.0f64; n1 * n2];
            for i in 0..n1 {
                if a.kinds[i] == NodeKind::Skip || a.kinds[i] == NodeKind::Relationship {
                    continue;
                }
                for j in 0..n2 {
                    if a.kinds[i] != b.kinds[j] {
                        continue;
                    }
                    // Rings empty on both sides carry no evidence either
                    // way; normalize over the applicable rings only.
                    let mut vicinity = 0.0;
                    let mut weight_sum = 0.0;
                    for (d, w) in ring_weights.iter().enumerate() {
                        let ra = &a.neighborhoods[i][d];
                        let rb = &b.neighborhoods[j][d];
                        if ra.is_empty() && rb.is_empty() {
                            continue;
                        }
                        weight_sum += w;
                        vicinity += w * ring_match(&a, &b, i, j, d, &sim, n2);
                    }
                    if weight_sum > 0.0 {
                        vicinity /= weight_sum;
                    }
                    let seed_w = match a.kinds[i] {
                        NodeKind::Attribute => cfg.attr_seed_weight,
                        _ => cfg.entity_seed_weight,
                    };
                    let blended = seed_w * seed[i * n2 + j] + (1.0 - seed_w) * vicinity;
                    // A perfect lexical seed is never degraded by a weak
                    // vicinity (DIKE merges identically-named elements
                    // across different nestings — canonical test 5).
                    next[i * n2 + j] = blended.max(seed[i * n2 + j].min(1.0));
                }
            }
            sim = next;
        }

        // merge decisions: greedy 1:1 per kind
        let mut result = DikeResult::default();
        for (kind, out) in [
            (NodeKind::Entity, &mut result.merged_entities),
            (NodeKind::Attribute, &mut result.merged_attributes),
        ] {
            let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
            for i in 0..n1 {
                if a.kinds[i] != kind {
                    continue;
                }
                for j in 0..n2 {
                    if b.kinds[j] != kind {
                        continue;
                    }
                    let v = sim[i * n2 + j];
                    if v >= cfg.merge_threshold {
                        pairs.push((i, j, v));
                    }
                }
            }
            pairs.sort_by(|x, y| {
                y.2.partial_cmp(&x.2)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.0.cmp(&y.0))
                    .then(x.1.cmp(&y.1))
            });
            let mut used1 = vec![false; n1];
            let mut used2 = vec![false; n2];
            for (i, j, v) in pairs {
                if used1[i] || used2[j] {
                    continue;
                }
                used1[i] = true;
                used2[j] = true;
                out.push(MergedPair {
                    source_path: a.paths[i].clone(),
                    target_path: b.paths[j].clone(),
                    similarity: v,
                });
            }
        }
        result
    }
}

/// Greedy best-pairing average over two distance-`d` rings, normalized by
/// the larger ring (size mismatches dilute the evidence).
fn ring_match(a: &Side, b: &Side, i: usize, j: usize, d: usize, sim: &[f64], n2: usize) -> f64 {
    let ra = &a.neighborhoods[i][d];
    let rb = &b.neighborhoods[j][d];
    if ra.is_empty() || rb.is_empty() {
        return 0.0;
    }
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for &x in ra {
        for &y in rb {
            if a.kinds[x] == b.kinds[y] {
                let v = sim[x * n2 + y];
                if v > 0.0 {
                    pairs.push((x, y, v));
                }
            }
        }
    }
    pairs.sort_by(|p, q| q.2.partial_cmp(&p.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut used_a: Vec<usize> = Vec::new();
    let mut used_b: Vec<usize> = Vec::new();
    let mut total = 0.0;
    for (x, y, v) in pairs {
        if used_a.contains(&x) || used_b.contains(&y) {
            continue;
        }
        used_a.push(x);
        used_b.push(y);
        total += v;
    }
    total / ra.len().max(rb.len()) as f64
}

fn domain_compat(a: cupid_model::DataType, b: cupid_model::DataType) -> f64 {
    if a == b {
        1.0
    } else if a.broad() == b.broad() {
        0.8
    } else {
        0.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_model::{DataType, SchemaBuilder};

    fn customer(name: &str, attrs: &[(&str, DataType)], class: &str) -> Schema {
        let mut b = SchemaBuilder::new(name);
        let c = b.structured(b.root(), class, ElementKind::Class);
        for (a, dt) in attrs {
            b.atomic(c, *a, ElementKind::Attribute, *dt);
        }
        b.build().unwrap()
    }

    const BASE: [(&str, DataType); 3] = [
        ("CustomerNumber", DataType::Int),
        ("Name", DataType::String),
        ("Address", DataType::String),
    ];

    #[test]
    fn identical_schemas_merge_without_lspd() {
        let s1 = customer("Schema1", &BASE, "Customer");
        let s2 = customer("Schema2", &BASE, "Customer");
        let r = Dike::new().run(&s1, &s2, &Lspd::default());
        assert!(r.has_entity("Schema1.Customer", "Schema2.Customer"), "{r:#?}");
        assert!(r.has_attribute("Schema1.Customer.Name", "Schema2.Customer.Name"));
        assert_eq!(r.merged_attributes.len(), 3);
    }

    #[test]
    fn renamed_attributes_require_lspd_entries() {
        // canonical test 3
        let s1 = customer("Schema1", &BASE, "Customer");
        let s2 = customer(
            "Schema2",
            &[
                ("CustomerNumberId", DataType::Int),
                ("CustomerName", DataType::String),
                ("StreetAddress", DataType::String),
            ],
            "Customer",
        );
        let without = Dike::new().run(&s1, &s2, &Lspd::default());
        assert!(
            !without.has_attribute("Schema1.Customer.Name", "Schema2.Customer.CustomerName"),
            "without LSPD the renamed attributes must not merge"
        );
        let lspd = Lspd::from_pairs([
            ("CustomerNumber", "CustomerNumberId", 1.0),
            ("Name", "CustomerName", 1.0),
            ("Address", "StreetAddress", 1.0),
        ]);
        let with = Dike::new().run(&s1, &s2, &lspd);
        assert!(with.has_attribute("Schema1.Customer.Name", "Schema2.Customer.CustomerName"));
        assert!(with.has_attribute("Schema1.Customer.Address", "Schema2.Customer.StreetAddress"));
    }

    #[test]
    fn renamed_class_merges_through_vicinity() {
        // canonical test 4: Customer vs Person, identical attributes.
        let s1 = customer("Schema1", &BASE, "Customer");
        let s2 = customer("Schema2", &BASE, "Person");
        let r = Dike::new().run(&s1, &s2, &Lspd::default());
        assert!(
            r.has_entity("Schema1.Customer", "Schema2.Person"),
            "vicinity evidence should merge the renamed classes: {r:#?}"
        );
    }

    #[test]
    fn nesting_differences_still_merge_identical_names() {
        // canonical test 5
        let mut b = SchemaBuilder::new("Schema1");
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        b.atomic(c, "SSN", ElementKind::Attribute, DataType::String);
        let nm = b.structured(c, "FullName", ElementKind::Class);
        b.atomic(nm, "FirstName", ElementKind::Attribute, DataType::String);
        b.atomic(nm, "LastName", ElementKind::Attribute, DataType::String);
        let s1 = b.build().unwrap();
        let s2 = customer(
            "Schema2",
            &[
                ("SSN", DataType::String),
                ("FirstName", DataType::String),
                ("LastName", DataType::String),
            ],
            "Customer",
        );
        let r = Dike::new().run(&s1, &s2, &Lspd::default());
        assert!(r.has_attribute("Schema1.Customer.SSN", "Schema2.Customer.SSN"));
        assert!(
            r.has_attribute("Schema1.Customer.FullName.FirstName", "Schema2.Customer.FirstName"),
            "identical names across nesting must merge: {r:#?}"
        );
    }

    #[test]
    fn shared_types_defeat_context_dependence() {
        // canonical test 6 shape: one shared Address, two target copies.
        let mut b = SchemaBuilder::new("S1");
        let po = b.structured(b.root(), "PurchaseOrder", ElementKind::Class);
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::Attribute, DataType::String);
        b.atomic(addr, "City", ElementKind::Attribute, DataType::String);
        let ship = b.structured(po, "ShippingAddress", ElementKind::Class);
        b.derive_from(ship, addr);
        let bill = b.structured(po, "BillingAddress", ElementKind::Class);
        b.derive_from(bill, addr);
        let s1 = b.build().unwrap();

        let mut b = SchemaBuilder::new("S2");
        let po = b.structured(b.root(), "PurchaseOrder", ElementKind::Class);
        for part in ["ShippingAddress", "BillingAddress"] {
            let p = b.structured(po, part, ElementKind::Class);
            b.atomic(p, "Street", ElementKind::Attribute, DataType::String);
            b.atomic(p, "City", ElementKind::Attribute, DataType::String);
        }
        let s2 = b.build().unwrap();

        let r = Dike::new().run(&s1, &s2, &Lspd::default());
        // The single S1 Street node can merge with at most one of the two
        // S2 Street nodes: context-dependent mapping is impossible.
        let street_merges =
            r.merged_attributes.iter().filter(|m| m.source_path == "S1.Address.Street").count();
        assert!(street_merges <= 1, "shared node cannot map to both contexts: {r:#?}");
    }

    #[test]
    fn lspd_lookup_rules() {
        let mut l = Lspd::default();
        l.insert("Bill", "Invoice", 0.9);
        assert_eq!(l.lookup("bill", "INVOICE"), 0.9);
        assert_eq!(l.lookup("City", "city"), 1.0);
        assert_eq!(l.lookup("City", "Town"), 0.0);
        assert_eq!(l.len(), 1);
        l.insert("a", "b", 7.0);
        assert_eq!(l.lookup("a", "b"), 1.0); // clamped
    }
}
