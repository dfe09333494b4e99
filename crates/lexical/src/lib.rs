//! # cupid-lexical — linguistic substrate for the Cupid schema matcher
//!
//! This crate implements the linguistic resources that Section 5 of
//! *Generic Schema Matching with Cupid* (Madhavan, Bernstein, Rahm; VLDB
//! 2001) depends on:
//!
//! * a customizable **tokenizer** that splits schema element names on
//!   punctuation, case transitions, digits and special symbols
//!   ([`tokenizer::Tokenizer`]),
//! * a light **stemmer** that puts tokens into canonical form
//!   ([`stem::stem`]), so that `Lines` and `Line`, `Items` and `Item`
//!   compare equal,
//! * a **thesaurus** holding abbreviations/acronyms, stop words, concept
//!   tags, and weighted synonym/hypernym entries ([`thesaurus::Thesaurus`]),
//! * the **normalization pipeline** of Section 5.1 — tokenization,
//!   expansion, elimination, concept tagging ([`normalize::Normalizer`]),
//! * **token-level similarity** — thesaurus lookup with a common
//!   prefix/suffix fallback ([`strsim::token_similarity`]),
//! * **token interning and similarity memoization** — a dense
//!   vocabulary table plus a per-match triangular cache that computes
//!   each distinct token pair exactly once ([`intern::TokenTable`],
//!   [`intern::TokenSimCache`]; DESIGN.md §6).
//!
//! The paper assumed these resources would come from an off-the-shelf
//! thesaurus (WordNet integration was listed as future work); here they are
//! built from scratch so the matcher is fully self-contained.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod intern;
pub mod normalize;
pub mod stem;
pub mod strsim;
pub mod thesaurus;
pub mod token;
pub mod tokenizer;

pub use intern::{
    token_id_from_wire, NameId, SimStore, TokenId, TokenSimCache, TokenTable, NAME_BOUND,
    TOKEN_BOUND,
};
pub use normalize::{NormalizedName, Normalizer};
pub use stem::stem;
pub use strsim::{class_similarity_explained, token_similarity, TokenSimProvenance};
pub use thesaurus::{Thesaurus, ThesaurusBuilder};
pub use token::{SimClass, Token, TokenType};
pub use tokenizer::{Tokenizer, TokenizerConfig};
