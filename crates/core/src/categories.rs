//! Categorization (§5.2).
//!
//! *"Cupid clusters schema elements belonging to the two schemas into
//! categories. A category is a group of elements that can be identified
//! by a set of keywords, which are derived from concepts, data types, and
//! element names. … The purpose of categorization is to reduce the number
//! of element-to-element comparisons."*
//!
//! Three category sources, exactly as the paper lists them:
//! * **Concept tagging** — a category per unique concept tag;
//! * **Data types** — a category per broad data type (keyword `Number`,
//!   `Text`, …);
//! * **Container** — a category per containing element (keyword = the
//!   container's name tokens): `Street` and `City` contained by `Address`
//!   form a category with keyword `Address`.
//!
//! Each element may belong to multiple categories. Categories are built
//! per schema; compatibility across schemas is decided by name similarity
//! of the keyword sets (threshold `thns`) in [`crate::linguistic`].

use std::collections::HashMap;

use cupid_lexical::{NormalizedName, Token, TokenType};
use cupid_model::wire::{broad_type_code, broad_type_from_code};
use cupid_model::{BroadType, ElementId, ElementKind, Schema, WireError, WireReader, WireWriter};

/// Identity of a category within one schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CategoryKey {
    /// A concept tag (canonical concept name).
    Concept(String),
    /// A broad data type.
    Broad(BroadType),
    /// A containing element.
    Container(ElementId),
}

/// One category: keywords plus member elements.
#[derive(Debug, Clone)]
pub struct Category {
    /// What defines this category.
    pub key: CategoryKey,
    /// Keyword token set used for cross-schema compatibility checks.
    pub keywords: NormalizedName,
    /// Member elements.
    pub members: Vec<ElementId>,
}

/// All categories of one schema, with the element → category index.
#[derive(Debug, Clone, Default)]
pub struct SchemaCategories {
    /// The categories, in creation order.
    pub categories: Vec<Category>,
    /// Per element: indices into `categories`.
    pub element_categories: Vec<Vec<u32>>,
}

impl SchemaCategories {
    /// Categories an element belongs to.
    pub fn of(&self, e: ElementId) -> &[u32] {
        &self.element_categories[e.index()]
    }

    /// Encode the categories (snapshot support; DESIGN.md §8). `vocab`
    /// scopes the keyword names' interned ids on decode.
    pub fn write_wire(&self, w: &mut WireWriter) {
        w.put_list(&self.categories, |w, c| {
            match &c.key {
                CategoryKey::Concept(name) => {
                    w.put_u8(0);
                    w.put_str(name);
                }
                CategoryKey::Broad(b) => {
                    w.put_u8(1);
                    w.put_u8(broad_type_code(*b));
                }
                CategoryKey::Container(e) => {
                    w.put_u8(2);
                    w.put_u32(e.index() as u32);
                }
            }
            c.keywords.write_wire(w);
            w.put_list(&c.members, |w, m| w.put_u32(m.index() as u32));
        });
        w.put_list(&self.element_categories, |w, cs| w.put_list(cs, |w, &c| w.put_u32(c)));
    }

    /// Decode categories written by [`SchemaCategories::write_wire`].
    pub fn read_wire(r: &mut WireReader<'_>, vocab: usize) -> Result<SchemaCategories, WireError> {
        let categories = r.get_list(|r| {
            let key = match r.get_u8()? {
                0 => CategoryKey::Concept(r.get_str()?),
                1 => CategoryKey::Broad(
                    broad_type_from_code(r.get_u8()?)
                        .ok_or_else(|| r.err("unknown broad type code"))?,
                ),
                2 => CategoryKey::Container(ElementId::from_index(r.get_u32()? as usize)),
                c => return Err(r.err(format!("unknown category key code {c}"))),
            };
            let keywords = NormalizedName::read_wire(r, vocab)?;
            let members = r.get_list(|r| Ok(ElementId::from_index(r.get_u32()? as usize)))?;
            Ok(Category { key, keywords, members })
        })?;
        let nc = categories.len();
        let element_categories = r.get_list(|r| {
            r.get_list(|r| match r.get_u32()? {
                c if (c as usize) < nc => Ok(c),
                c => Err(r.err(format!("category index {c} out of bounds ({nc})"))),
            })
        })?;
        let ne = element_categories.len();
        // Element ids inside the categories are only checkable now that
        // the element count is known; without this, a crafted snapshot
        // could smuggle out-of-range members into `pair_lsim`'s matrix
        // writes.
        for c in &categories {
            if let CategoryKey::Container(e) = c.key {
                if e.index() >= ne {
                    return Err(r.err(format!("container id {e} out of bounds ({ne} elements)")));
                }
            }
            for &m in &c.members {
                if m.index() >= ne {
                    return Err(r.err(format!("member id {m} out of bounds ({ne} elements)")));
                }
            }
        }
        Ok(SchemaCategories { categories, element_categories })
    }
}

fn keyword_name(text: &str) -> NormalizedName {
    NormalizedName {
        tokens: vec![Token::new(text, TokenType::Content)],
        ..NormalizedName::default()
    }
}

/// Add `member` to the category `key`. A new category takes its keywords
/// from `keywords`, which is called only then.
fn join(
    out: &mut SchemaCategories,
    index: &mut HashMap<CategoryKey, u32>,
    key: CategoryKey,
    keywords: impl FnOnce() -> NormalizedName,
    member: ElementId,
) {
    let ci = match index.get(&key) {
        Some(&ci) => ci,
        None => {
            let ci = out.categories.len() as u32;
            index.insert(key.clone(), ci);
            out.categories.push(Category { key, keywords: keywords(), members: Vec::new() });
            ci
        }
    };
    out.categories[ci as usize].members.push(member);
    out.element_categories[member.index()].push(ci);
}

/// Elements that should be linguistically matched. Keys and
/// referential-constraint reifications are skipped: *"We may … choose not
/// to linguistically match certain elements, e.g. those with no
/// significant name, such as keys"* (§8.2). Views keep their (meaningful)
/// names. Type definitions are never matched directly — their contexts
/// are — but they still serve as containers.
pub fn is_linguistically_comparable(schema: &Schema, e: ElementId) -> bool {
    let elem = schema.element(e);
    match elem.kind {
        ElementKind::Key | ElementKind::ForeignKey => false,
        ElementKind::View => true,
        ElementKind::TypeDef => false,
        _ => !elem.not_instantiated,
    }
}

/// Build the categories of one schema. `names[e]` must hold the
/// normalized name of every element (including non-comparable ones, whose
/// names serve as container keywords).
pub fn categorize(schema: &Schema, names: &[NormalizedName]) -> SchemaCategories {
    assert_eq!(names.len(), schema.len(), "one normalized name per element");
    let mut out = SchemaCategories {
        categories: Vec::new(),
        element_categories: vec![Vec::new(); schema.len()],
    };
    let mut index: HashMap<CategoryKey, u32> = HashMap::new();

    for (e, elem) in schema.iter() {
        if !is_linguistically_comparable(schema, e) {
            continue;
        }
        // Concept categories.
        for concept in &names[e.index()].concepts {
            let key = CategoryKey::Concept(concept.clone());
            join(&mut out, &mut index, key, || keyword_name(concept), e);
        }
        // Broad data-type category.
        let broad = elem.data_type.broad();
        join(&mut out, &mut index, CategoryKey::Broad(broad), || keyword_name(broad.keyword()), e);
        // Container category: keyed by the containing element; keywords
        // are the container's name tokens.
        if let Some(parent) = schema.parent(e) {
            let keywords = || names[parent.index()].clone();
            join(&mut out, &mut index, CategoryKey::Container(parent), keywords, e);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cupid_lexical::{Normalizer, Thesaurus, ThesaurusBuilder};
    use cupid_model::{DataType, SchemaBuilder};

    fn thesaurus() -> Thesaurus {
        ThesaurusBuilder::new().concept("price", "money").concept("cost", "money").build().unwrap()
    }

    fn names_for(schema: &Schema, t: &Thesaurus) -> Vec<NormalizedName> {
        let n = Normalizer::default();
        schema.iter().map(|(_, e)| n.normalize(&e.name, t)).collect()
    }

    fn address_schema() -> Schema {
        let mut b = SchemaBuilder::new("S");
        let addr = b.structured(b.root(), "Address", ElementKind::XmlElement);
        b.atomic(addr, "Street", ElementKind::XmlElement, DataType::String);
        b.atomic(addr, "City", ElementKind::XmlElement, DataType::String);
        b.atomic(addr, "UnitPrice", ElementKind::XmlElement, DataType::Money);
        b.build().unwrap()
    }

    #[test]
    fn container_category_groups_children() {
        let s = address_schema();
        let t = thesaurus();
        let names = names_for(&s, &t);
        let cats = categorize(&s, &names);
        let addr = s.find("Address").unwrap();
        let container = cats
            .categories
            .iter()
            .find(|c| c.key == CategoryKey::Container(addr))
            .expect("Address container category");
        // Street, City, UnitPrice are the members.
        assert_eq!(container.members.len(), 3);
        assert_eq!(container.keywords.texts(), ["address"]);
    }

    #[test]
    fn broad_type_categories() {
        let s = address_schema();
        let t = thesaurus();
        let names = names_for(&s, &t);
        let cats = categorize(&s, &names);
        let texts = cats
            .categories
            .iter()
            .find(|c| c.key == CategoryKey::Broad(BroadType::Text))
            .expect("text category");
        assert_eq!(texts.members.len(), 2); // Street, City
        let nums = cats
            .categories
            .iter()
            .find(|c| c.key == CategoryKey::Broad(BroadType::Number))
            .expect("number category");
        assert_eq!(nums.members.len(), 1); // UnitPrice (money)
    }

    #[test]
    fn concept_category_from_tagging() {
        let s = address_schema();
        let t = thesaurus();
        let names = names_for(&s, &t);
        let cats = categorize(&s, &names);
        let money = cats
            .categories
            .iter()
            .find(|c| c.key == CategoryKey::Concept("money".into()))
            .expect("money concept category");
        let price = s.find("UnitPrice").unwrap();
        assert_eq!(money.members, vec![price]);
    }

    #[test]
    fn elements_belong_to_multiple_categories() {
        let s = address_schema();
        let t = thesaurus();
        let names = names_for(&s, &t);
        let cats = categorize(&s, &names);
        let price = s.find("UnitPrice").unwrap();
        // UnitPrice: money concept + number broad + Address container.
        assert_eq!(cats.of(price).len(), 3);
    }

    #[test]
    fn keys_and_fks_not_categorized() {
        let mut b = SchemaBuilder::new("DB");
        let t1 = b.table("A");
        let c1 = b.column(t1, "X", DataType::Int);
        let pk = b.primary_key(t1, &[c1]);
        let t2 = b.table("B");
        let c2 = b.column(t2, "Y", DataType::Int);
        b.foreign_key(t2, "B-A-fk", &[c2], pk);
        let s = b.build().unwrap();
        let t = Thesaurus::empty();
        let names = names_for(&s, &t);
        let cats = categorize(&s, &names);
        for cat in &cats.categories {
            for &m in &cat.members {
                let kind = s.element(m).kind;
                assert!(
                    kind != ElementKind::Key && kind != ElementKind::ForeignKey,
                    "key-like element {m} should not be categorized"
                );
            }
        }
    }
}
