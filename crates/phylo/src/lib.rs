//! Phylogenetic tree substrate for the BFHRF workspace.
//!
//! This crate plays the role Dendropy plays for the paper's Python
//! implementation: it owns the tree data model, Newick I/O, taxon
//! namespaces, and bipartition (bitmask) extraction. Everything downstream —
//! the BFHRF algorithm, the baselines, the simulators — is built on these
//! types.
//!
//! # Data model
//!
//! * [`TaxonSet`] — an interned, ordered namespace of taxon labels. Taxa are
//!   assigned consecutive [`TaxonId`]s in insertion order; the id doubles as
//!   the taxon's bit position in bipartition encodings (taxon 0 is bit 0,
//!   the paper's "species A").
//! * [`Tree`] — an arena-allocated rooted tree whose leaves carry
//!   [`TaxonId`]s. Unrooted semantics (what RF is defined over) live at the
//!   bipartition level: two rootings of the same unrooted tree produce the
//!   same bipartition set.
//! * [`Bipartition`] — a canonicalized leaf-set bitmask: the side containing
//!   taxon 0 is stored as the set bits, exactly Dendropy's normalization
//!   used in the paper's examples.
//!
//! # Example
//!
//! ```
//! use phylo::{TaxonSet, parse_newick, TaxaPolicy};
//!
//! let mut taxa = TaxonSet::new();
//! let t1 = parse_newick("((A,B),(C,D));", &mut taxa, TaxaPolicy::Grow).unwrap();
//! let t2 = parse_newick("((D,B),(C,A));", &mut taxa, TaxaPolicy::Require).unwrap();
//!
//! // Non-trivial bipartitions: one internal edge each.
//! let b1 = t1.bipartitions(&taxa);
//! let b2 = t2.bipartitions(&taxa);
//! assert_eq!(b1.len(), 1);
//! assert_eq!(b1[0].bits().to_string(), "0011"); // {A,B} | {C,D}
//! assert_eq!(b2[0].bits().to_string(), "0101"); // {A,C} | {B,D}
//! ```

pub mod bipartition;
pub mod edit;
pub mod error;
pub mod ingest;
pub mod newick;
pub mod reroot;
pub mod restrict;
pub mod scratch;
pub mod stats;
pub mod taxa;
pub mod traverse;
pub mod tree;

pub use bipartition::{Bipartition, BipartitionSet};
pub use error::PhyloError;
pub use ingest::{IngestPolicy, IngestReport, NewickReader, RecordError, SplitReader};
pub use newick::{
    parse_newick, parse_newick_readonly, read_trees_from_str, write_newick, TaxaPolicy,
};
pub use scratch::{BipartitionScratch, SplitBatch};
pub use taxa::{TaxonId, TaxonSet};
pub use tree::{NodeId, Tree};

/// A tree collection sharing one taxon namespace — the paper's `R` or `Q`.
#[derive(Debug, Clone, Default)]
pub struct TreeCollection {
    /// The shared namespace; bipartitions of every member are encoded over it.
    pub taxa: TaxonSet,
    /// The member trees, in input order.
    pub trees: Vec<Tree>,
}

impl TreeCollection {
    /// Parse a collection from newline/semicolon-separated Newick text,
    /// growing a fresh namespace as new labels appear.
    pub fn parse(text: &str) -> Result<Self, PhyloError> {
        let mut taxa = TaxonSet::new();
        let trees = read_trees_from_str(text, &mut taxa, TaxaPolicy::Grow)?;
        Ok(TreeCollection { taxa, trees })
    }

    /// Number of member trees (`r` in the paper).
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the collection has no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}
