//! # cupid-core — the Cupid schema matching algorithm
//!
//! From-scratch implementation of *Generic Schema Matching with Cupid*
//! (Madhavan, Bernstein, Rahm; VLDB 2001 / MSR-TR-2001-58). The match
//! computes similarity coefficients between elements of two schemas in
//! two phases and then deduces a mapping:
//!
//! 1. **Linguistic matching** (§5, [`linguistic`]): names are normalized
//!    (tokenization, expansion, elimination, concept tagging), elements
//!    are clustered into categories to prune comparisons, and the
//!    linguistic similarity coefficient `lsim` is computed for element
//!    pairs from compatible categories.
//! 2. **Structure matching** (§6, [`treematch`]): the TreeMatch algorithm
//!    computes a structural similarity `ssim` over the two schema trees,
//!    biased toward leaves, with mutual reinforcement between ancestor
//!    and leaf similarities.
//! 3. **Mapping generation** (§7, [`mapping`]): pairs with maximal
//!    weighted similarity `wsim = w_struct·ssim + (1−w_struct)·lsim` above
//!    `th_accept` become mapping elements.
//!
//! For corpus-scale workloads, [`session`] adds batch matching on top
//! of the same engine: per-schema precompute shared across pairs, one
//! persistent token-similarity memo, and sharded multi-threaded pair
//! execution with bit-identical results (DESIGN.md §7; see
//! [`Cupid::session`] and [`Cupid::match_corpus`]).
//!
//! The entry point is [`Cupid`] in [`matcher`]:
//!
//! ```
//! use cupid_core::Cupid;
//! use cupid_lexical::Thesaurus;
//! use cupid_model::{SchemaBuilder, ElementKind, DataType};
//!
//! let mut b = SchemaBuilder::new("PO");
//! let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
//! b.atomic(item, "Qty", ElementKind::XmlAttribute, DataType::Int);
//! let po = b.build().unwrap();
//!
//! let mut b = SchemaBuilder::new("Order");
//! let item = b.structured(b.root(), "Item", ElementKind::XmlElement);
//! b.atomic(item, "Quantity", ElementKind::XmlAttribute, DataType::Int);
//! let order = b.build().unwrap();
//!
//! let thesaurus = Thesaurus::parse("abbrev Qty = quantity").unwrap();
//! let outcome = Cupid::new(thesaurus).match_schemas(&po, &order).unwrap();
//! assert_eq!(outcome.leaf_mappings.len(), 1);
//! assert_eq!(&*outcome.leaf_mappings[0].source_path, "PO.Item.Qty");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod categories;
pub mod config;
pub mod explain;
pub mod lazy;
pub mod learning;
pub mod linguistic;
pub mod mapping;
pub mod matcher;
pub mod session;
pub mod simmatrix;
pub mod treematch;
pub mod types_compat;

pub use config::{CupidConfig, TokenTypeWeights};
pub use explain::{Explanation, PairExplanation, StructuralContext, TokenPairScore};
pub use learning::{Proposal, ThesaurusLearner};
pub use linguistic::{LinguisticAnalysis, LsimTable};
pub use mapping::{Cardinality, MappingElement};
pub use matcher::{CorpusMatch, Cupid, MatchOutcome};
pub use session::{MatchSession, MatchSummary, PreparedSchema, SchemaId, SessionStats};
pub use simmatrix::SimMatrix;
pub use treematch::TreeMatchResult;
pub use types_compat::TypeCompatibility;
