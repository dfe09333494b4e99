//! # cupid-model — the generic schema model of the Cupid paper (§8.1)
//!
//! *"In our generic schema model, a schema is a rooted graph whose nodes
//! are elements."* Elements are interconnected by three relationship
//! types — **containment** (each non-root element has exactly one
//! containment parent), **aggregation** (weak grouping, multiple parents
//! allowed; e.g. a compound key aggregating columns), and
//! **IsDerivedFrom** (shared type information: IsA / IsTypeOf) — plus
//! **RefInt** elements that reify referential constraints by aggregating
//! their source columns and *referencing* their target key (§8.3).
//!
//! The crate provides:
//! * [`Schema`] — an arena of [`Element`]s with the relationship edges,
//!   validated on construction ([`builder::SchemaBuilder`]);
//! * [`SchemaTree`] — the expanded schema tree of Figure 4, produced by
//!   [`tree::expand`]; type substitution materializes one node per
//!   context, which is what makes Cupid's context-dependent mappings
//!   possible (§8.2);
//! * join-view and view reification (Figure 6) in [`joinview`], which
//!   turns the tree into a DAG of schema paths;
//! * convenience builders for relational and XML-style schemas.
//!
//! The model is deliberately independent of any matcher: `cupid-core`,
//! the baselines, and the I/O layer all consume it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod element;
pub mod error;
pub mod joinview;
pub mod schema;
pub mod tree;
pub mod wire;

pub use builder::SchemaBuilder;
pub use element::{BroadType, DataType, Element, ElementId, ElementKind};
pub use error::ModelError;
pub use joinview::ExpandOptions;
pub use schema::Schema;
pub use tree::{expand, NodeId, SchemaTree, TreeNode};
pub use wire::{
    fnv1a, fnv1a_extend, read_frame, write_frame, FrameError, WireError, WireReader, WireWriter,
};
