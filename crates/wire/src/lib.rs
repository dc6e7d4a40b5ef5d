//! `phylo-wire`: the succinct binary tree encoding.
//!
//! Newick is the lingua franca of phylogenetics, but it is a *text* format:
//! every ingest, WAL replay, and served query pays a lexer, a label hash
//! per leaf, and float formatting on the way out. This crate defines the
//! binary alternative the rest of the workspace negotiates — never
//! assumes — whenever both sides already share a taxon namespace:
//!
//! * a **tree record** ([`encode_tree`]/[`decode_tree`]): topology as a
//!   balanced-parentheses bitstream (one open bit per node entry, one
//!   close bit per exit, so a tree of `n` nodes is exactly `2n` bits),
//!   leaf taxa as LEB128 varints of their [`phylo::TaxonId`]s in preorder,
//!   optional edge lengths behind a presence bitmap, the whole record
//!   sealed by a truncated FNV-1a checksum. Decode builds straight into
//!   the [`phylo::Tree`] arena — no lexer, no label interning, no float
//!   parsing — so rfbench's `newick.parse_us` and `wire.decode_us` layers
//!   time the same tree built two ways;
//! * a **collection container** ([`write_collection`]/[`BinReader`]):
//!   `PHYLOWIR` magic, version, an FNV-sealed header and taxa table, then
//!   length-prefixed tree records under a section seal. The embedded taxa
//!   table makes a `.phb` file self-contained the way a Newick file is;
//! * a **format sniffer** ([`read_collection_sniffed`] and friends): peeks
//!   the magic and falls back to the byte-identical Newick path, so every
//!   CLI entry point accepts either format without being told;
//! * the **base64 codec** ([`b64`]) proto v2 uses to carry binary records
//!   inside JSON frames when a session negotiates `encoding: "bin"`.
//!
//! Everything decode-side returns typed [`WireError`]s — corrupt input,
//! including adversarially corrupt input, must never panic. The corruption
//! sweeps in this crate's tests flip and truncate real records byte by
//! byte to hold that line.
//!
//! Format spec: DESIGN.md §13.

mod b64_impl;
mod error;
mod file;
mod fnv;
mod record;
mod sniff;
mod varint;

pub use error::WireError;
pub use file::{
    collection_to_vec, write_collection, BinReader, FILE_MAGIC, FILE_VERSION, MAX_RECORD_LEN,
};
pub use fnv::{fnv1a64, fnv1a64_words, Digest};
pub use record::{
    decode_tree, decode_tree_exact, encode_tree, encode_tree_vec, remap_leaf_taxa, FLAG_LENGTHS,
    RECORD_TAG,
};
pub use sniff::{
    read_collection_sniffed, read_trees_sniffed, sniff_is_binary, SniffedReader, WireFormat,
};
pub use varint::{put_uvarint, take_uvarint};

/// Base64 (standard alphabet, padded) for carrying binary records in JSON
/// frames.
pub mod b64 {
    pub use crate::b64_impl::{decode, encode};
}
