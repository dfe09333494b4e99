//! An ARTEMIS/MOMIS-style matcher (§9, refs \[1,3\]).
//!
//! MOMIS *"accepts schemas as class definitions. The WordNet system is
//! used to obtain name affinities among schema elements. For each element
//! name, the user chooses an appropriate word form in WordNet and narrows
//! down its possible meanings"*; ARTEMIS then *"computes the structural
//! affinity for all pairs of classes based on their name affinity and
//! their respective class attributes. The classes of the input schemas
//! are clustered into global classes of the mediated schema … The
//! attributes of clustered classes are fused, if possible."*
//!
//! The user's WordNet interaction is modeled by a [`SenseDictionary`]:
//! each element name may be assigned a *sense* (the chosen word form),
//! and sense pairs may carry affinity coefficients (synonym/hypernym
//! relationships). Without a dictionary entry, two names are
//! name-affine only when their canonical forms are equal — reproducing
//! the paper's observation that *"DIKE and MOMIS expect identical names
//! for matching schema elements in the absence of linguistic input"*.
//!
//! Behavioural properties verified against §9:
//! * class-level granularity: different nesting fails (test 5), context
//!   dependence fails (test 6);
//! * fusion happens only inside global clusters, so an attribute can be
//!   fused with a same-schema sibling (the `itemCount`/`Quantity` quirk
//!   of Table 3);
//! * attributes sharing one sense (the `Street1..4` family) collapse
//!   into one fused group instead of mapping 1:1.

use std::collections::HashMap;

use cupid_lexical::stem::stem;
use cupid_model::{DataType, ElementId, ElementKind, Schema};

/// Which schema a class/attribute came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// First input schema.
    Left,
    /// Second input schema.
    Right,
}

/// The user-selected WordNet senses and sense-level affinities.
#[derive(Debug, Clone, Default)]
pub struct SenseDictionary {
    /// element name (canonical) → chosen sense term.
    senses: HashMap<String, String>,
    /// symmetric sense-pair affinities (synonyms/hypernyms).
    affinities: HashMap<(String, String), f64>,
}

fn canon(s: &str) -> String {
    stem(&s.to_lowercase()).into_owned()
}

fn pair(a: &str, b: &str) -> (String, String) {
    let (a, b) = (canon(a), canon(b));
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl SenseDictionary {
    /// Assign a sense (word form) to an element name.
    pub fn choose_sense(&mut self, element_name: &str, sense: &str) -> &mut Self {
        self.senses.insert(canon(element_name), canon(sense));
        self
    }

    /// Record a sense-level affinity (synonym/hypernym), symmetric.
    pub fn relate(&mut self, sense_a: &str, sense_b: &str, coefficient: f64) -> &mut Self {
        self.affinities.insert(pair(sense_a, sense_b), coefficient.clamp(0.0, 1.0));
        self
    }

    /// The sense of a name: the user's choice, else the canonical name
    /// itself.
    pub fn sense_of(&self, name: &str) -> String {
        let c = canon(name);
        self.senses.get(&c).cloned().unwrap_or(c)
    }

    /// Name affinity of two element names.
    pub fn name_affinity(&self, a: &str, b: &str) -> f64 {
        let (sa, sb) = (self.sense_of(a), self.sense_of(b));
        if sa == sb {
            return 1.0;
        }
        self.affinities.get(&pair(&sa, &sb)).copied().unwrap_or(0.0)
    }
}

/// ARTEMIS control parameters.
#[derive(Debug, Clone)]
pub struct ArtemisConfig {
    /// Weight of name affinity in the global affinity
    /// `GA = λ·NA + (1−λ)·SA`.
    pub name_weight: f64,
    /// Clustering threshold on global affinity.
    pub cluster_threshold: f64,
    /// Name-affinity threshold for attribute fusion inside a cluster.
    pub fusion_threshold: f64,
}

impl Default for ArtemisConfig {
    fn default() -> Self {
        // Name affinity dominates (0.6): MOMIS clustering is driven by
        // the user's WordNet selections. The cluster threshold sits above
        // (1-λ)·SA_max, so classes with identical attribute sets but
        // unrelated names (Address vs ShipTo in canonical test 6) stay
        // apart, while name-affine classes with weak structural evidence
        // (InvoiceTo vs the address family) still cluster.
        ArtemisConfig { name_weight: 0.6, cluster_threshold: 0.55, fusion_threshold: 0.7 }
    }
}

/// A class as ARTEMIS sees it.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Which schema.
    pub side: Side,
    /// Containment path of the class element.
    pub path: String,
    /// Class name.
    pub name: String,
    /// Attributes: `(name, path, data type)`.
    pub attributes: Vec<(String, String, DataType)>,
}

/// One fused global attribute: the member attribute paths per side.
#[derive(Debug, Clone, Default)]
pub struct FusedAttribute {
    /// Member attribute paths from the left schema.
    pub left: Vec<String>,
    /// Member attribute paths from the right schema.
    pub right: Vec<String>,
}

/// ARTEMIS output.
#[derive(Debug, Clone, Default)]
pub struct ArtemisResult {
    /// Global classes: clusters of `(side, class path)`.
    pub clusters: Vec<Vec<(Side, String)>>,
    /// Fused attributes per cluster.
    pub fused: Vec<FusedAttribute>,
}

impl ArtemisResult {
    /// True if the two class paths ended up in the same cluster.
    pub fn clustered_together(&self, left_path: &str, right_path: &str) -> bool {
        self.clusters.iter().any(|c| {
            c.contains(&(Side::Left, left_path.to_string()))
                && c.contains(&(Side::Right, right_path.to_string()))
        })
    }

    /// The cluster containing a class path, if any.
    pub fn cluster_of(&self, side: Side, path: &str) -> Option<&Vec<(Side, String)>> {
        self.clusters.iter().find(|c| c.contains(&(side, path.to_string())))
    }

    /// True if the two attribute paths were fused *and* the fusion is
    /// unambiguous (exactly one attribute per side in the group) — the
    /// paper's notion of a 1:1 attribute mapping.
    pub fn fused_one_to_one(&self, left_path: &str, right_path: &str) -> bool {
        self.fused.iter().any(|f| {
            f.left.len() == 1
                && f.right.len() == 1
                && f.left[0] == left_path
                && f.right[0] == right_path
        })
    }

    /// True if the two attribute paths share a fused group (possibly
    /// ambiguous).
    pub fn fused_together(&self, left_path: &str, right_path: &str) -> bool {
        self.fused.iter().any(|f| {
            f.left.iter().any(|p| p == left_path) && f.right.iter().any(|p| p == right_path)
        })
    }
}

/// The ARTEMIS matcher.
#[derive(Debug, Clone, Default)]
pub struct Artemis {
    config: ArtemisConfig,
}

/// Extract ARTEMIS's class view from a schema: every element that carries
/// attributes (directly, or through derived types) is a class; structured
/// children appear as complex-typed attributes of their parent class.
pub fn classes_of(schema: &Schema, side: Side) -> Vec<ClassDef> {
    let mut out = Vec::new();
    for (id, e) in schema.iter() {
        if matches!(
            e.kind,
            ElementKind::Key
                | ElementKind::ForeignKey
                | ElementKind::View
                | ElementKind::Attribute
                | ElementKind::XmlAttribute
                | ElementKind::Column
        ) {
            // attributes never become classes, even when typed by one
            // ("ShippingAddress: Address" in canonical test 6).
            continue;
        }
        let mut attrs: Vec<(String, String, DataType)> = Vec::new();
        collect_attrs(schema, id, &mut attrs);
        if attrs.is_empty() {
            continue;
        }
        out.push(ClassDef {
            side,
            path: schema.containment_path(id),
            name: e.name.clone(),
            attributes: attrs,
        });
    }
    out
}

fn collect_attrs(schema: &Schema, class: ElementId, out: &mut Vec<(String, String, DataType)>) {
    for &c in schema.children(class) {
        let e = schema.element(c);
        if matches!(e.kind, ElementKind::Key | ElementKind::ForeignKey | ElementKind::View) {
            continue;
        }
        out.push((e.name.clone(), schema.containment_path(c), e.data_type));
    }
    // type substitution at the class-definition level: members of derived
    // types become attributes (single copy — no context duplication).
    for &t in schema.derived_from(class) {
        collect_attrs(schema, t, out);
    }
}

fn type_compatible(a: DataType, b: DataType) -> bool {
    a.broad() == b.broad()
        || a.broad() == cupid_model::BroadType::Text
        || b.broad() == cupid_model::BroadType::Text
        || a == DataType::Unknown
        || b == DataType::Unknown
}

impl Artemis {
    /// Matcher with default parameters.
    pub fn new() -> Self {
        Artemis::default()
    }

    /// Matcher with custom parameters.
    pub fn with_config(config: ArtemisConfig) -> Self {
        Artemis { config }
    }

    /// Structural affinity: greedy best pairing of attribute sets by name
    /// affinity gated on type compatibility, normalized by the larger
    /// attribute set.
    fn structural_affinity(&self, a: &ClassDef, b: &ClassDef, dict: &SenseDictionary) -> f64 {
        if a.attributes.is_empty() || b.attributes.is_empty() {
            return 0.0;
        }
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        for (i, (an, _, at)) in a.attributes.iter().enumerate() {
            for (j, (bn, _, bt)) in b.attributes.iter().enumerate() {
                if !type_compatible(*at, *bt) {
                    continue;
                }
                let na = dict.name_affinity(an, bn);
                if na > 0.0 {
                    pairs.push((i, j, na));
                }
            }
        }
        pairs.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap_or(std::cmp::Ordering::Equal));
        let mut used_a = vec![false; a.attributes.len()];
        let mut used_b = vec![false; b.attributes.len()];
        let mut total = 0.0;
        for (i, j, v) in pairs {
            if used_a[i] || used_b[j] {
                continue;
            }
            used_a[i] = true;
            used_b[j] = true;
            total += v;
        }
        total / a.attributes.len().max(b.attributes.len()) as f64
    }

    /// Global affinity `GA = λ·NA + (1−λ)·SA`.
    fn global_affinity(&self, a: &ClassDef, b: &ClassDef, dict: &SenseDictionary) -> f64 {
        let na = dict.name_affinity(&a.name, &b.name);
        let sa = self.structural_affinity(a, b, dict);
        self.config.name_weight * na + (1.0 - self.config.name_weight) * sa
    }

    /// Run ARTEMIS over two schemas.
    pub fn run(&self, s1: &Schema, s2: &Schema, dict: &SenseDictionary) -> ArtemisResult {
        let mut classes = classes_of(s1, Side::Left);
        classes.extend(classes_of(s2, Side::Right));
        let n = classes.len();

        // pairwise global affinities
        let mut ga = vec![0.0f64; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = self.global_affinity(&classes[i], &classes[j], dict);
                ga[i * n + j] = v;
                ga[j * n + i] = v;
            }
        }

        // hierarchical agglomerative clustering, average linkage
        let mut cluster_of: Vec<usize> = (0..n).collect();
        loop {
            // find best inter-cluster average affinity
            let mut best: Option<(usize, usize, f64)> = None;
            for ci in 0..n {
                for cj in (ci + 1)..n {
                    let members_i: Vec<usize> = (0..n).filter(|&k| cluster_of[k] == ci).collect();
                    let members_j: Vec<usize> = (0..n).filter(|&k| cluster_of[k] == cj).collect();
                    if members_i.is_empty() || members_j.is_empty() {
                        continue;
                    }
                    let mut sum = 0.0;
                    for &x in &members_i {
                        for &y in &members_j {
                            sum += ga[x * n + y];
                        }
                    }
                    let avg = sum / (members_i.len() * members_j.len()) as f64;
                    match best {
                        Some((_, _, bv)) if bv >= avg => {}
                        _ => best = Some((ci, cj, avg)),
                    }
                }
            }
            match best {
                Some((ci, cj, v)) if v >= self.config.cluster_threshold => {
                    for c in cluster_of.iter_mut() {
                        if *c == cj {
                            *c = ci;
                        }
                    }
                }
                _ => break,
            }
        }

        // materialize clusters
        let mut clusters: Vec<Vec<(Side, String)>> = Vec::new();
        let mut fused: Vec<FusedAttribute> = Vec::new();
        let mut cluster_ids: Vec<usize> = cluster_of.clone();
        cluster_ids.sort_unstable();
        cluster_ids.dedup();
        for cid in cluster_ids {
            let members: Vec<usize> = (0..n).filter(|&k| cluster_of[k] == cid).collect();
            clusters.push(
                members.iter().map(|&k| (classes[k].side, classes[k].path.clone())).collect(),
            );
            // attribute fusion inside the cluster: group attributes by
            // fused identity. Start one group per attribute; merge groups
            // whose representative names have affinity ≥ fusion_threshold
            // and compatible types; then resolve leftovers by unique
            // compatible data type.
            let mut attrs: Vec<(Side, String, String, DataType)> = Vec::new();
            for &k in &members {
                for (an, ap, at) in &classes[k].attributes {
                    attrs.push((classes[k].side, an.clone(), ap.clone(), *at));
                }
            }
            let m = attrs.len();
            let mut group: Vec<usize> = (0..m).collect();
            for i in 0..m {
                for j in (i + 1)..m {
                    if group[j] != j {
                        continue;
                    }
                    let na = dict.name_affinity(&attrs[i].1, &attrs[j].1);
                    if na >= self.config.fusion_threshold && type_compatible(attrs[i].3, attrs[j].3)
                    {
                        let gi = group[i];
                        for g in group.iter_mut() {
                            if *g == j {
                                *g = gi;
                            }
                        }
                    }
                }
            }
            // leftover singletons: fuse by unique compatible broad type
            // across sides (this reproduces itemCount ↔ Quantity).
            let singleton = |g: &Vec<usize>, i: usize| g.iter().filter(|&&x| x == i).count() == 1;
            for i in 0..m {
                if group[i] != i || !singleton(&group, i) {
                    continue;
                }
                let candidates: Vec<usize> = (0..m)
                    .filter(|&j| {
                        j != i
                            && group[j] == j
                            && singleton(&group, j)
                            && attrs[j].3.broad() == attrs[i].3.broad()
                    })
                    .collect();
                if candidates.len() == 1 {
                    let j = candidates[0];
                    let gi = group[i];
                    group[j] = gi;
                }
            }
            // materialize fused groups with members from both sides
            let mut by_group: HashMap<usize, FusedAttribute> = HashMap::new();
            for (i, (side, _, path, _)) in attrs.iter().enumerate() {
                let f = by_group.entry(group[i]).or_default();
                match side {
                    Side::Left => f.left.push(path.clone()),
                    Side::Right => f.right.push(path.clone()),
                }
            }
            let mut groups: Vec<FusedAttribute> = by_group.into_values().collect();
            groups.retain(|f| !f.left.is_empty() || !f.right.is_empty());
            groups.sort_by(|a, b| {
                a.left.first().or(a.right.first()).cmp(&b.left.first().or(b.right.first()))
            });
            fused.extend(groups);
        }
        ArtemisResult { clusters, fused }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_model::SchemaBuilder;

    fn customer(name: &str, class: &str, attrs: &[(&str, DataType)]) -> Schema {
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
    fn identical_schemas_cluster_and_fuse() {
        let s1 = customer("Schema1", "Customer", &BASE);
        let s2 = customer("Schema2", "Customer", &BASE);
        let r = Artemis::new().run(&s1, &s2, &SenseDictionary::default());
        assert!(r.clustered_together("Schema1.Customer", "Schema2.Customer"));
        assert!(r.fused_one_to_one("Schema1.Customer.Name", "Schema2.Customer.Name"));
        assert!(r.fused_one_to_one(
            "Schema1.Customer.CustomerNumber",
            "Schema2.Customer.CustomerNumber"
        ));
    }

    #[test]
    fn renamed_attributes_need_user_synonyms() {
        // canonical test 3, footnote b
        let s1 = customer("Schema1", "Customer", &BASE);
        let s2 = customer(
            "Schema2",
            "Customer",
            &[
                ("CustomerNumberId", DataType::Int),
                ("CustomerName", DataType::String),
                ("StreetAddress", DataType::String),
            ],
        );
        let without = Artemis::new().run(&s1, &s2, &SenseDictionary::default());
        assert!(!without.fused_together("Schema1.Customer.Name", "Schema2.Customer.CustomerName"));
        let mut dict = SenseDictionary::default();
        dict.choose_sense("CustomerName", "name")
            .choose_sense("StreetAddress", "address")
            .choose_sense("CustomerNumberId", "customernumber");
        let with = Artemis::new().run(&s1, &s2, &dict);
        assert!(with.fused_one_to_one("Schema1.Customer.Name", "Schema2.Customer.CustomerName"));
        assert!(with.fused_one_to_one("Schema1.Customer.Address", "Schema2.Customer.StreetAddress"));
    }

    #[test]
    fn hypernym_clusters_renamed_class() {
        // canonical test 4: Person is a WordNet hypernym of Customer.
        let s1 = customer("Schema1", "Customer", &BASE);
        let s2 = customer("Schema2", "Person", &BASE);
        let mut dict = SenseDictionary::default();
        dict.relate("customer", "person", 0.8);
        let r = Artemis::new().run(&s1, &s2, &dict);
        assert!(r.clustered_together("Schema1.Customer", "Schema2.Person"), "{r:#?}");
    }

    #[test]
    fn nesting_differences_fail_at_class_level() {
        // canonical test 5: nested Name/Address classes do not cluster
        // with the flat Customer; their attributes stay unmapped.
        let mut b = SchemaBuilder::new("Schema1");
        let c = b.structured(b.root(), "Customer", ElementKind::Class);
        b.atomic(c, "SSN", ElementKind::Attribute, DataType::String);
        b.atomic(c, "Telephone", ElementKind::Attribute, DataType::String);
        let nm = b.structured(c, "Name", ElementKind::Class);
        b.atomic(nm, "FirstName", ElementKind::Attribute, DataType::String);
        b.atomic(nm, "LastName", ElementKind::Attribute, DataType::String);
        let ad = b.structured(c, "Address", ElementKind::Class);
        for f in ["Street", "City", "State", "Zip"] {
            b.atomic(ad, f, ElementKind::Attribute, DataType::String);
        }
        let s1 = b.build().unwrap();
        let s2 = customer(
            "Schema2",
            "Customer",
            &[
                ("SSN", DataType::String),
                ("Telephone", DataType::String),
                ("FirstName", DataType::String),
                ("LastName", DataType::String),
                ("Street", DataType::String),
                ("City", DataType::String),
                ("State", DataType::String),
                ("Zip", DataType::String),
            ],
        );
        let r = Artemis::new().run(&s1, &s2, &SenseDictionary::default());
        // The Customer classes cluster (paper: "MOMIS clusters the two
        // Customer classes together, but not the two other classes").
        assert!(r.clustered_together("Schema1.Customer", "Schema2.Customer"), "{r:#?}");
        assert!(!r.clustered_together("Schema1.Customer.Name", "Schema2.Customer"));
        assert!(!r.clustered_together("Schema1.Customer.Address", "Schema2.Customer"));
        // Nested attributes never reach the flat ones.
        assert!(!r.fused_together("Schema1.Customer.Name.FirstName", "Schema2.Customer.FirstName"));
    }

    #[test]
    fn context_dependence_fails() {
        // canonical test 6 shape: address-like classes stay in separate
        // clusters without dictionary support.
        let mut b = SchemaBuilder::new("S1");
        let po = b.structured(b.root(), "PurchaseOrder", ElementKind::Class);
        b.atomic(po, "OrderNumber", ElementKind::Attribute, DataType::Int);
        let addr = b.type_def("Address");
        b.atomic(addr, "Street", ElementKind::Attribute, DataType::String);
        b.atomic(addr, "City", ElementKind::Attribute, DataType::String);
        let sa = b.structured(po, "ShippingAddress", ElementKind::Attribute);
        b.derive_from(sa, addr);
        let s1 = b.build().unwrap();

        let mut b = SchemaBuilder::new("S2");
        let po = b.structured(b.root(), "PurchaseOrder", ElementKind::Class);
        b.atomic(po, "OrderNumber", ElementKind::Attribute, DataType::Int);
        let st = b.type_def("ShipTo");
        b.atomic(st, "Street", ElementKind::Attribute, DataType::String);
        b.atomic(st, "City", ElementKind::Attribute, DataType::String);
        let sa = b.structured(po, "ShippingAddress", ElementKind::Attribute);
        b.derive_from(sa, st);
        let s2 = b.build().unwrap();

        let r = Artemis::new().run(&s1, &s2, &SenseDictionary::default());
        assert!(r.clustered_together("S1.PurchaseOrder", "S2.PurchaseOrder"));
        // Address vs ShipTo: no name affinity → separate clusters.
        assert!(!r.clustered_together("S1.Address", "S2.ShipTo"), "{r:#?}");
    }

    #[test]
    fn shared_sense_collapses_street_family() {
        // Table 3: "the Street(1…4) attributes in the two schemas are not
        // mapped 1:1".
        let s1 = customer(
            "S1",
            "Address",
            &[("Street1", DataType::String), ("Street2", DataType::String)],
        );
        let s2 = customer(
            "S2",
            "Address",
            &[("street1", DataType::String), ("street2", DataType::String)],
        );
        let mut dict = SenseDictionary::default();
        for n in ["Street1", "Street2"] {
            dict.choose_sense(n, "street");
        }
        let r = Artemis::new().run(&s1, &s2, &dict);
        // All four street attributes fuse into one ambiguous group.
        assert!(!r.fused_one_to_one("S1.Address.Street1", "S2.Address.street1"));
        assert!(r.fused_together("S1.Address.Street1", "S2.Address.street2"));
    }
}
