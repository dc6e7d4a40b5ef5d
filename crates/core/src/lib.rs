//! # BFHRF — Bipartition Frequency Hash Robinson-Foulds
//!
//! Rust implementation of the algorithm from *"Scalable and Extensible
//! Robinson-Foulds for Comparative Phylogenetics"* (Chon et al., IPDPSW
//! 2022), together with every baseline the paper compares against.
//!
//! ## The idea
//!
//! Computing the average Robinson-Foulds distance of each query tree in `Q`
//! against a reference collection `R` classically needs `q × r` tree-vs-tree
//! comparisons. BFHRF instead builds a **bipartition frequency hash** over
//! `R` — a collision-free map from canonical bipartition bitmasks to how
//! many reference trees contain them, laid out as the read-only
//! [`FrozenBfh`] — and then answers each query with a single tree-vs-hash
//! comparison:
//!
//! ```text
//! RF_left  = sumBFHR − Σ_{b' ∈ B(T')} BFH[b']        (refs' splits missing from T')
//! RF_right = Σ_{b' ∈ B(T')} (r − BFH[b'])            (T's splits missing from refs)
//! avgRF(T') = (RF_left + RF_right) / r
//! ```
//!
//! Query comparisons are independent, so they parallelize embarrassingly
//! ([`BfhrfComparator`]`::parallel(true)` runs them on rayon).
//!
//! ## What's in the crate
//!
//! | Module | Contents |
//! |---|---|
//! | [`frozen`] | [`FrozenBfh`], the frequency table every analysis reads, and [`SplitDelta`] for updates without a rebuild |
//! | [`builder`] | [`BfhBuilder`] — the one configurable front door for building the table |
//! | [`bfh`] | The live hash with incremental add/remove: the oracle tests check the table against |
//! | [`guard`] | Run hardening: [`RunBudget`], [`CancelToken`], degradation log, panic isolation |
//! | [`comparator`] | The [`Comparator`] trait unifying every average-RF engine (BFHRF, DS/DSMP, HashRF, Day) |
//! | [`rf`] | BFHRF itself (Algorithm 2): sequential, parallel, streaming |
//! | [`seqrf`] | The DS/DSMP baselines (Algorithm 1): sequential and rayon-parallel all-pairs loops |
//! | [`hashrf`] | A faithful HashRF reimplementation: two-level universal hashing, all-vs-all `r × r` matrix, configurable ID width (collisions) |
//! | [`day`] | Day's O(n) pairwise RF — the independent correctness oracle |
//! | [`matrix`] | Collision-free all-vs-all RF matrices via a bipartition inverted index |
//! | [`consensus`] | Majority-rule, strict and greedy consensus straight from the table |
//! | [`variants`] | Generalized RF: split weighting (unit, information content), size filtering, normalization |
//! | [`variable_taxa`] | RF across collections with differing taxa via restriction to the common set |
//! | [`select`] | Best-query-tree selection (the paper's motivating use) |
//! | [`pgm`] | A PGM-Hashed-style comparator (the other hashed 1-vs-1 method the paper cites) |
//! | [`compact`] | Compressed-key hash (the paper's §IX lossless-compression extension) |
//! | [`support`] | Split-support annotation from the table (§IX "other applications of a BFH") |
//! | [`cluster`] | k-medoids + silhouette over RF matrices (the clustering workload of §I) |
//!
//! ## Quickstart
//!
//! ```
//! use bfhrf::{bfhrf_average, BfhBuilder};
//! use phylo::TreeCollection;
//!
//! let refs = TreeCollection::parse("((A,B),(C,D));\n((A,B),(C,D));\n((A,C),(B,D));").unwrap();
//! let queries = TreeCollection::parse("((A,B),(C,D));").unwrap();
//!
//! let table = BfhBuilder::new().freeze_trees(&refs.trees, &refs.taxa).unwrap();
//! let avg = bfhrf_average(&queries.trees[0], &refs.taxa, &table);
//! // distance 0 to two refs, 2 to one: average 2/3
//! assert!((avg.average() - 2.0 / 3.0).abs() < 1e-12);
//! ```
//!
//! (The query collection above happens to share its label→bit assignment
//! with the references; in real use parse both against one
//! [`phylo::TaxonSet`] — see `examples/`.)

pub mod bfh;
pub mod builder;
pub mod cluster;
pub mod compact;
pub mod comparator;
pub mod consensus;
pub mod day;
pub mod error;
pub mod frozen;
pub mod guard;
pub mod hashrf;
pub mod matrix;
pub mod pgm;
pub mod rf;
pub mod select;
pub mod seqrf;
pub mod support;
pub mod variable_taxa;
pub mod variants;

pub use bfh::Bfh;
pub use builder::{BfhBuilder, KeptSplits, CHUNK};
pub use compact::CompactBfh;
pub use comparator::{
    hashrf_or_degrade, BfhrfComparator, Comparator, DayComparator, FrozenComparator,
    HashRfComparator, SetComparator,
};
pub use day::day_rf;
pub use error::CoreError;
pub use frozen::{FrozenBfh, FrozenLayout, MapGuard, Overlay, SplitDelta};
pub use guard::{CancelToken, Degradation, EvictFn, RunBudget, RunGuard};
pub use hashrf::{HashRf, HashRfConfig};
pub use rf::{bfhrf_all, bfhrf_average, check_remove_batch, QueryScore, RfAverage, SplitFrequency};
pub use select::best_query;
pub use seqrf::sequential_rf;
