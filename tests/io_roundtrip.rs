//! Integration: the three importers produce schemas that flow through
//! the full matcher, equivalent schemas expressed in different formats
//! match each other, and the SDL writer is a faithful inverse of the
//! SDL parser (`parse → write → parse` proptests at the bottom).

use cupid::io::{parse_ddl, parse_sdl, schema_from_xml, write_sdl};
use cupid::prelude::*;
use proptest::prelude::*;

const SDL: &str = "\
schema PurchaseOrder
  element Header
    attr OrderNumber : string
    attr OrderDate : date
  element Items
    attr ItemCount : int
    element Item
      attr ItemNumber : int
      attr Quantity : decimal
      attr UnitPrice : money
";

const XML: &str = r#"
<PurchaseOrder>
  <Header OrderNumber="A17" OrderDate="2001-08-27"/>
  <Items ItemCount="1">
    <Item ItemNumber="1" Quantity="2.5" UnitPrice="9.95"/>
  </Items>
</PurchaseOrder>
"#;

const SQL: &str = "\
CREATE TABLE Header (
    OrderNumber VARCHAR(20) PRIMARY KEY,
    OrderDate DATE NOT NULL
);
CREATE TABLE Item (
    ItemNumber INTEGER PRIMARY KEY,
    Quantity NUMERIC(10,2) NOT NULL,
    UnitPrice MONEY NOT NULL
);
";

#[test]
fn sdl_and_xml_schemas_match_each_other() {
    let s1 = parse_sdl(SDL).unwrap();
    let s2 = schema_from_xml(XML).unwrap();
    let out = Cupid::new(Thesaurus::with_default_stopwords()).match_schemas(&s1, &s2).unwrap();
    for leaf in ["OrderNumber", "OrderDate", "ItemCount"] {
        assert!(
            out.leaf_mappings
                .iter()
                .any(|m| m.source_path.ends_with(leaf) && m.target_path.ends_with(leaf)),
            "missing {leaf}: {:#?}",
            out.leaf_mappings
        );
    }
    assert!(out.has_nonleaf_mapping("PurchaseOrder.Items.Item", "PurchaseOrder.Items.Item"));
}

#[test]
fn sdl_and_ddl_schemas_match_each_other() {
    let s1 = parse_sdl(SDL).unwrap();
    let s2 = parse_ddl("OrderDB", SQL).unwrap();
    let out = Cupid::new(Thesaurus::with_default_stopwords()).match_schemas(&s1, &s2).unwrap();
    assert!(out.leaf_mappings.iter().any(|m| &*m.source_path == "PurchaseOrder.Header.OrderDate"
        && &*m.target_path == "OrderDB.Header.OrderDate"));
    assert!(out
        .leaf_mappings
        .iter()
        .any(|m| &*m.source_path == "PurchaseOrder.Items.Item.UnitPrice"
            && &*m.target_path == "OrderDB.Item.UnitPrice"));
}

#[test]
fn parsed_types_align_across_formats() {
    let sdl = parse_sdl(SDL).unwrap();
    let xml = schema_from_xml(XML).unwrap();
    let ddl = parse_ddl("OrderDB", SQL).unwrap();
    // OrderDate is a date everywhere (XML infers it from the value)
    for (schema, path) in [
        (&sdl, "PurchaseOrder.Header.OrderDate"),
        (&xml, "PurchaseOrder.Header.OrderDate"),
        (&ddl, "OrderDB.Header.OrderDate"),
    ] {
        let id = schema.find_path(path).expect(path);
        assert_eq!(schema.element(id).data_type, DataType::Date, "{path}");
    }
    // Quantity: decimal in SDL/DDL; the XML instance value 2.5 infers it
    let id = xml.find_path("PurchaseOrder.Items.Item.Quantity").unwrap();
    assert_eq!(xml.element(id).data_type, DataType::Decimal);
}

// ---- SDL writer round-trip proptests (DESIGN.md §8) --------------------
//
// `write_sdl` is how the persistent repository exports schemas, so it
// must be the exact inverse of `parse_sdl` on everything SDL can
// express. The generator below builds randomized SDL-expressible
// schemas *depth-first* (document order = arena order, the invariant
// that makes content-hash comparison meaningful), covering nested
// structured elements, atomic elements and attributes with every
// writable data type and flag combination, shared type definitions and
// `uses` references.

/// Safe name pool (no whitespace/`#`/`:`, parse keywords included on
/// purpose — names are positional in the grammar).
const NAMES: &[&str] = &[
    "Order", "Item", "Qty", "Address", "Street", "City", "Code", "uses", "Total", "Line2", "Group",
    "Note", "élan", "x",
];

const TYPES: &[DataType] = &[
    DataType::Int,
    DataType::String,
    DataType::Decimal,
    DataType::Date,
    DataType::Bool,
    DataType::Money,
    DataType::Unknown,
    DataType::Identifier,
];

/// Decode one op integer into a construction step. Ops are applied
/// depth-first against a stack of open structured elements.
fn apply_op(b: &mut SchemaBuilder, stack: &mut Vec<ElementId>, typedefs: &[ElementId], op: usize) {
    let name = NAMES[(op / 7) % NAMES.len()];
    let dtype = TYPES[(op / 3) % TYPES.len()];
    let parent = *stack.last().expect("root always open");
    match op % 7 {
        // open a nested structured element (bounded depth)
        0 if stack.len() < 5 => {
            let e = b.structured(parent, name, ElementKind::XmlElement);
            if op.is_multiple_of(11) {
                b.set_optional(e, true);
            }
            if !typedefs.is_empty() && op.is_multiple_of(5) {
                b.derive_from(e, typedefs[op % typedefs.len()]);
            }
            stack.push(e);
        }
        // close the innermost structured element
        1 => {
            if stack.len() > 1 {
                stack.pop();
            }
        }
        // atomic attribute
        2 | 3 => {
            let a = b.atomic(parent, name, ElementKind::XmlAttribute, dtype);
            if op.is_multiple_of(2) {
                b.set_optional(a, true);
            }
            if op.is_multiple_of(13) {
                b.set_key(a, true);
            }
        }
        // atomic element (the grammar extension)
        4 | 5 => {
            let e = b.atomic(parent, name, ElementKind::XmlElement, dtype);
            if op.is_multiple_of(3) {
                b.set_optional(e, true);
            }
        }
        // structured element with a uses reference and no children
        _ => {
            let e = b.structured(parent, name, ElementKind::XmlElement);
            if let Some(&t) = typedefs.get(op % (typedefs.len().max(1))) {
                b.derive_from(e, t);
            }
        }
    }
}

/// Build a randomized SDL-expressible schema: `n_types` shared type
/// definitions (each with one attribute), then `ops`-driven depth-first
/// construction.
fn sdl_schema(n_types: usize, ops: &[usize]) -> Schema {
    let mut b = SchemaBuilder::new("Gen");
    let mut typedefs = Vec::new();
    for t in 0..n_types {
        let td = b.type_def(format!("Type{t}"));
        b.atomic(td, NAMES[t % NAMES.len()], ElementKind::XmlAttribute, TYPES[t % TYPES.len()]);
        typedefs.push(td);
    }
    let mut stack = vec![b.root()];
    for &op in ops {
        apply_op(&mut b, &mut stack, &typedefs, op);
    }
    b.build().expect("generated schema is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// parse(write(s)) reproduces s exactly — content hash included —
    /// and write is a fixed point from then on.
    #[test]
    fn sdl_write_parse_is_identity(
        n_types in 0usize..4,
        ops in proptest::collection::vec(0usize..1000, 0..40),
    ) {
        let schema = sdl_schema(n_types, &ops);
        let text = write_sdl(&schema).expect("generated schemas are SDL-expressible");
        let parsed = parse_sdl(&text)
            .unwrap_or_else(|e| panic!("writer output must parse: {e}\n--- document ---\n{text}"));
        prop_assert_eq!(
            parsed.content_hash(),
            schema.content_hash(),
            "parse ∘ write must be the identity\n--- document ---\n{}",
            text
        );
        let again = write_sdl(&parsed).expect("reparsed schema writes");
        prop_assert_eq!(&again, &text, "write must be a fixed point");
    }

    /// The round-tripped schema is not just hash-equal but behaves
    /// identically in a match: same mappings against a fixed probe.
    #[test]
    fn sdl_round_trip_matches_identically(
        n_types in 0usize..3,
        ops in proptest::collection::vec(0usize..1000, 1..24),
    ) {
        let schema = sdl_schema(n_types, &ops);
        let text = write_sdl(&schema).expect("expressible");
        let parsed = parse_sdl(&text).expect("writer output parses");
        let probe = sdl_schema(1, &[0, 2, 4, 1, 5, 3]);
        let cupid = Cupid::new(Thesaurus::with_default_stopwords());
        let a = cupid.match_schemas(&schema, &probe).expect("matches");
        let b = cupid.match_schemas(&parsed, &probe).expect("matches");
        prop_assert_eq!(a.leaf_mappings, b.leaf_mappings);
        prop_assert_eq!(a.nonleaf_mappings, b.nonleaf_mappings);
    }
}
