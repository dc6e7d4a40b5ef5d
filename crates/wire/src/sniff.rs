//! Format sniffing: every ingest entry point accepts *either* a Newick
//! text stream or a `PHYLOWIR` container, keyed on the first eight bytes.
//! The fallback path hands the exact original byte stream to the Newick
//! reader, so text ingest stays byte-identical to a world without this
//! crate — the binary format is detected, never assumed.

use crate::file::{BinReader, FILE_MAGIC};
use crate::WireError;
use phylo::{
    BipartitionScratch, IngestPolicy, IngestReport, NewickReader, PhyloError, SplitReader,
    TaxaPolicy, TaxonSet, Tree, TreeCollection,
};
use std::io::{BufRead, Chain, Cursor, Read};

/// Which encoding a sniffed stream turned out to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Newick text.
    Newick,
    /// `phylo-wire` binary.
    Bin,
}

impl WireFormat {
    /// Parse a user-facing format name (`--format`, proto `encoding`).
    pub fn parse(s: &str) -> Option<WireFormat> {
        match s {
            "newick" => Some(WireFormat::Newick),
            "bin" => Some(WireFormat::Bin),
            _ => None,
        }
    }

    /// The user-facing name (`newick` / `bin`).
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Newick => "newick",
            WireFormat::Bin => "bin",
        }
    }
}

impl std::fmt::Display for WireFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Do these leading bytes open a `PHYLOWIR` container?
pub fn sniff_is_binary(head: &[u8]) -> bool {
    head.len() >= FILE_MAGIC.len() && head[..FILE_MAGIC.len()] == FILE_MAGIC
}

type Rechained<R> = Chain<Cursor<Vec<u8>>, R>;

enum Inner<R: BufRead> {
    Newick(NewickReader<Rechained<R>>),
    Bin(BinReader<Rechained<R>>),
}

/// A reader over either encoding with the [`NewickReader`] pull API:
/// construct once, call [`next_tree`](Self::next_tree) until `Ok(None)`,
/// collect the skip report. Binary decode failures surface as
/// [`PhyloError::Parse`] (prefixed `wire:`) so callers keep one error
/// path.
pub struct SniffedReader<R: BufRead> {
    inner: Inner<R>,
    format: WireFormat,
}

impl<R: BufRead> SniffedReader<R> {
    /// Sniff `src` and open the matching reader. For a binary stream the
    /// embedded taxa table is resolved against `taxa` under `taxa_policy`
    /// immediately; a Newick stream resolves labels record by record as
    /// before.
    pub fn open(
        mut src: R,
        taxa: &mut TaxonSet,
        taxa_policy: TaxaPolicy,
        policy: IngestPolicy,
    ) -> Result<Self, PhyloError> {
        // Pull up to 8 bytes so the magic check works even on readers
        // whose fill_buf returns short slices, then chain them back in
        // front of the untouched remainder.
        let mut head = Vec::with_capacity(FILE_MAGIC.len());
        while head.len() < FILE_MAGIC.len() {
            let mut byte = [0u8; 1];
            match src.read(&mut byte) {
                Ok(0) => break,
                Ok(_) => head.push(byte[0]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e).into_phylo()),
            }
        }
        let binary = sniff_is_binary(&head);
        let rechained = Cursor::new(head).chain(src);
        if binary {
            let reader = BinReader::new(rechained, taxa, taxa_policy, policy)
                .map_err(WireError::into_phylo)?;
            Ok(SniffedReader {
                inner: Inner::Bin(reader),
                format: WireFormat::Bin,
            })
        } else {
            Ok(SniffedReader {
                inner: Inner::Newick(NewickReader::new(rechained, taxa_policy, policy)),
                format: WireFormat::Newick,
            })
        }
    }

    /// Which encoding the stream carries.
    pub fn format(&self) -> WireFormat {
        self.format
    }

    /// Pull the next tree. `taxa` is consulted by the Newick path (the
    /// binary path resolved its namespace at open).
    pub fn next_tree(&mut self, taxa: &mut TaxonSet) -> Result<Option<Tree>, PhyloError> {
        match &mut self.inner {
            Inner::Newick(r) => r.next_tree(taxa),
            Inner::Bin(r) => r.next_tree().map_err(WireError::into_phylo),
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &IngestReport {
        match &self.inner {
            Inner::Newick(r) => r.report(),
            Inner::Bin(r) => r.report(),
        }
    }

    /// Consume the reader, yielding the final report.
    pub fn into_report(self) -> IngestReport {
        match self.inner {
            Inner::Newick(r) => r.into_report(),
            Inner::Bin(r) => r.into_report(),
        }
    }
}

impl<R: BufRead> SplitReader for SniffedReader<R> {
    /// A Newick record is lexed straight into masks by
    /// [`NewickReader`]; a `bin` record is decoded to a tree, whose splits
    /// are then extracted.
    fn next_splits(
        &mut self,
        taxa: &mut TaxonSet,
        scratch: &mut BipartitionScratch,
        out: &mut Vec<u64>,
    ) -> Result<Option<usize>, PhyloError> {
        match &mut self.inner {
            Inner::Newick(r) => r.next_splits(taxa, scratch, out),
            Inner::Bin(r) => {
                let Some(tree) = r.next_tree().map_err(WireError::into_phylo)? else {
                    return Ok(None);
                };
                let mut n = 0;
                scratch.for_each_split(&tree, taxa, |w| {
                    out.extend_from_slice(w);
                    n += 1;
                });
                Ok(Some(n))
            }
        }
    }
}

/// Sniffing twin of [`phylo::ingest::read_collection`]: grow a fresh
/// namespace from either encoding.
pub fn read_collection_sniffed<R: BufRead>(
    src: R,
    policy: IngestPolicy,
) -> Result<(TreeCollection, IngestReport), PhyloError> {
    let mut taxa = TaxonSet::new();
    let mut stream = SniffedReader::open(src, &mut taxa, TaxaPolicy::Grow, policy)?;
    let mut trees = Vec::new();
    while let Some(t) = stream.next_tree(&mut taxa)? {
        trees.push(t);
    }
    Ok((TreeCollection { taxa, trees }, stream.into_report()))
}

/// Sniffing twin of [`phylo::ingest::read_trees`]: read either encoding
/// against an existing namespace.
pub fn read_trees_sniffed<R: BufRead>(
    src: R,
    taxa: &mut TaxonSet,
    taxa_policy: TaxaPolicy,
    policy: IngestPolicy,
) -> Result<(Vec<Tree>, IngestReport), PhyloError> {
    let mut stream = SniffedReader::open(src, taxa, taxa_policy, policy)?;
    let mut trees = Vec::new();
    while let Some(t) = stream.next_tree(taxa)? {
        trees.push(t);
    }
    Ok((trees, stream.into_report()))
}
