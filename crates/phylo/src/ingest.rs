//! Fault-tolerant streaming ingestion with structured error reporting.
//!
//! The paper's evaluation is a robustness cautionary tale: HashRF "could not
//! read" the 149k-tree Insect collection at all. Real-world Newick files
//! carry malformed records, editor damage, and encoding junk, and a strict
//! reader aborts a 100k-tree run on the first bad byte. This module adds a
//! recovery mode: [`NewickReader`] splits the byte stream into `;`-terminated
//! records (with the lexer's quote- and comment-aware scan) while tracking
//! absolute byte offsets and line numbers, and under [`IngestPolicy::Lenient`]
//! skips a malformed record, resynchronizes at the next record boundary, and
//! logs the failure in an [`IngestReport`] instead of aborting.
//!
//! Each record comes back either as a parsed [`Tree`]
//! ([`NewickReader::next_tree`]) or as its postorder shape, lexed straight
//! from the record's bytes ([`SplitReader::next_shape`]), which
//! [`SplitReader::next_splits`] turns into canonical split masks. All
//! take the same records, refuse the same ones with the same errors and
//! offsets, and leave the same namespace and report behind.
//!
//! Two invariants make lenient mode safe to use for RF comparisons:
//!
//! 1. **Namespace rollback.** A record that fails mid-parse may already have
//!    interned labels under [`TaxaPolicy::Grow`]. Those labels are rolled
//!    back ([`TaxonSet::truncate`]) so a skipped record leaves *no trace*:
//!    the accepted trees are bit-for-bit identical to parsing a pre-cleaned
//!    file.
//! 2. **Typed exhaustion.** `Lenient { max_errors }` bounds how much garbage
//!    the reader will wade through; exceeding the budget returns
//!    [`PhyloError::ErrorLimit`] rather than silently producing an empty
//!    collection from a file that was never Newick at all.

use crate::newick::{parse_newick, policy_resolver, TaxaPolicy, Trivia};
use crate::taxa::TaxonSet;
use crate::tree::Tree;
use crate::{BipartitionScratch, PhyloError, Shapes, TreeCollection};
use std::io::BufRead;

/// A stream of trees read as their postorder shapes: what the BFHRF build
/// and the streamed query scorer consume, canonicalising each shape
/// wherever they fold or score it. [`NewickReader`] lexes each record
/// straight into a shape; `phylo_wire::SniffedReader` also reads binary
/// containers.
pub trait SplitReader {
    /// Read the next tree, resolving labels against (and under a growing
    /// policy, into) `taxa`, and append its shape to `shapes`, using
    /// `scratch` as the work space. Returns `Ok(false)` at the end of the
    /// stream. Whatever the outcome, `shapes` gains at most the one tree.
    fn next_shape(
        &mut self,
        taxa: &mut TaxonSet,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, PhyloError>;

    /// Read the next tree as [`next_shape`](Self::next_shape) does, and
    /// append its non-trivial canonical split masks to `out` at stride
    /// `words_for(taxa.len())` as the namespace stands after the tree —
    /// the masks [`BipartitionScratch::for_each_split`] gives for the
    /// parsed tree, in the same order. Returns how many masks were
    /// appended, or `Ok(None)` at the end of the stream.
    fn next_splits(
        &mut self,
        taxa: &mut TaxonSet,
        scratch: &mut BipartitionScratch,
        out: &mut Vec<u64>,
    ) -> Result<Option<usize>, PhyloError> {
        let mut one = scratch.take_one();
        let read = self.next_shape(taxa, scratch, &mut one);
        let n = read.map(|more| more.then(|| scratch.shape_splits(&one, 0, taxa.len(), out)));
        scratch.put_one(one);
        n
    }
}

/// How the reader responds to a malformed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestPolicy {
    /// Abort on the first error (the historical behaviour), with the error's
    /// byte offset made absolute within the stream.
    Strict,
    /// Skip malformed records, resynchronizing at the next `;`-terminated
    /// record boundary, until more than `max_errors` records have failed.
    Lenient {
        /// Maximum number of records that may be skipped before the reader
        /// gives up with [`PhyloError::ErrorLimit`].
        max_errors: usize,
    },
}

impl IngestPolicy {
    /// Lenient with an unbounded error budget.
    pub fn lenient() -> Self {
        IngestPolicy::Lenient {
            max_errors: usize::MAX,
        }
    }
}

/// One skipped record: where it was and why it failed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordError {
    /// 0-based index of the record in the stream (counting both accepted
    /// and skipped records).
    pub record: usize,
    /// 1-based line number of the error position.
    pub line: usize,
    /// Absolute byte offset of the error position within the stream.
    pub byte: usize,
    /// The underlying failure.
    pub error: PhyloError,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {} (line {}, byte {}): {}",
            self.record, self.line, self.byte, self.error
        )
    }
}

/// Accumulated outcome of an ingestion run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Number of records parsed into trees.
    pub accepted: usize,
    /// Every skipped record, in stream order.
    pub skipped: Vec<RecordError>,
}

impl IngestReport {
    /// Total records seen (accepted + skipped).
    pub fn records(&self) -> usize {
        self.accepted + self.skipped.len()
    }

    /// Whether any record was skipped — the "partial success" condition.
    pub fn is_partial(&self) -> bool {
        !self.skipped.is_empty()
    }

    /// One-line human summary, e.g. for a stderr report.
    pub fn summary(&self) -> String {
        format!(
            "ingest: {} records, {} accepted, {} skipped",
            self.records(),
            self.accepted,
            self.skipped.len()
        )
    }
}

/// Streaming Newick reader with absolute positions and error recovery.
///
/// Yields one tree at a time from any `BufRead` source in O(one record)
/// memory, tracks the absolute byte offset and line number of every record
/// so errors point into the *file*, not into an anonymous record, and
/// supports lenient recovery via [`IngestPolicy`].
pub struct NewickReader<R: BufRead> {
    reader: R,
    taxa_policy: TaxaPolicy,
    policy: IngestPolicy,
    buf: Vec<u8>,
    done: bool,
    /// Absolute byte offset of the next unread byte.
    offset: usize,
    /// 1-based line number at `offset`.
    line: usize,
    report: IngestReport,
}

impl<R: BufRead> NewickReader<R> {
    /// Create a reader over `reader` with the given policies.
    pub fn new(reader: R, taxa_policy: TaxaPolicy, policy: IngestPolicy) -> Self {
        NewickReader {
            reader,
            taxa_policy,
            policy,
            buf: Vec::new(),
            done: false,
            offset: 0,
            line: 1,
            report: IngestReport::default(),
        }
    }

    /// The report accumulated so far (complete once `next_tree` returns
    /// `Ok(None)`).
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Consume the reader, returning the final report.
    pub fn into_report(self) -> IngestReport {
        self.report
    }

    /// Read the next tree, resolving labels against `taxa`.
    ///
    /// Returns `Ok(None)` at end of input. Under `Lenient`, malformed
    /// records are recorded in the report and skipped; under `Strict`, the
    /// first failure is returned with its byte offset made absolute.
    pub fn next_tree(&mut self, taxa: &mut TaxonSet) -> Result<Option<Tree>, PhyloError> {
        let policy = self.taxa_policy;
        self.next_with(taxa, |text, taxa| parse_newick(text, taxa, policy))
    }

    /// Cut the next record and hand its text to `parse`, applying the
    /// ingest policy to a failure: roll the namespace back, make the
    /// offset absolute, and return it or log it and go on.
    fn next_with<T>(
        &mut self,
        taxa: &mut TaxonSet,
        mut parse: impl FnMut(&str, &mut TaxonSet) -> Result<T, PhyloError>,
    ) -> Result<Option<T>, PhyloError> {
        loop {
            let Some((start_offset, start_line, complete)) = self.next_record()? else {
                return Ok(None);
            };
            let mark = taxa.len();
            let parsed = if !complete {
                Err(PhyloError::parse(
                    self.buf.len(),
                    "unterminated tree at end of input (missing ';')",
                ))
            } else {
                match std::str::from_utf8(&self.buf) {
                    Ok(text) => parse(text, taxa),
                    Err(e) => Err(PhyloError::parse(
                        e.valid_up_to(),
                        "invalid UTF-8 in newick stream",
                    )),
                }
            };
            match parsed {
                Ok(parsed) => {
                    self.report.accepted += 1;
                    return Ok(Some(parsed));
                }
                Err(error) => {
                    // A failed record must leave no trace in the namespace.
                    taxa.truncate(mark);
                    let rel = match &error {
                        PhyloError::Parse { offset, .. } => *offset,
                        _ => 0,
                    }
                    .min(self.buf.len());
                    let byte = start_offset + rel;
                    let line = start_line + newlines(&self.buf[..rel]);
                    match self.policy {
                        IngestPolicy::Strict => {
                            return Err(match error {
                                PhyloError::Parse { message, .. } => PhyloError::Parse {
                                    offset: byte,
                                    message,
                                },
                                other => other,
                            });
                        }
                        IngestPolicy::Lenient { max_errors } => {
                            let record = self.report.records();
                            self.report.skipped.push(RecordError {
                                record,
                                line,
                                byte,
                                error,
                            });
                            if self.report.skipped.len() > max_errors {
                                return Err(PhyloError::ErrorLimit {
                                    errors: self.report.skipped.len(),
                                    limit: max_errors,
                                });
                            }
                            if !complete {
                                // The bad record was the unterminated tail.
                                return Ok(None);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Fill `self.buf` with the next `;`-terminated record, returning its
    /// absolute start offset, start line, and whether the terminator was
    /// found (`false` means the stream ended mid-record). `Ok(None)` means
    /// clean end of input.
    ///
    /// The record is cut a buffered block at a time: the scan finds the
    /// terminating `;` (skipping 64-byte runs that cannot hold one in a
    /// single branch-free pass), then the bytes up to it are copied and
    /// their newlines counted at once.
    fn next_record(&mut self) -> Result<Option<(usize, usize, bool)>, PhyloError> {
        if self.done {
            return Ok(None);
        }
        self.buf.clear();
        // Skip inter-record whitespace so start positions point at content.
        loop {
            let (skip, len) = {
                let chunk = self.reader.fill_buf().map_err(|e| {
                    PhyloError::parse(self.offset, format!("I/O error reading newick stream: {e}"))
                })?;
                if chunk.is_empty() {
                    self.done = true;
                    return Ok(None);
                }
                let skip = chunk
                    .iter()
                    .position(|b| !b.is_ascii_whitespace())
                    .unwrap_or(chunk.len());
                self.line += newlines(&chunk[..skip]);
                (skip, chunk.len())
            };
            self.offset += skip;
            self.reader.consume(skip);
            if skip < len {
                break;
            }
        }

        let start_offset = self.offset;
        let start_line = self.line;
        let mut trivia = Trivia::default();
        loop {
            let (consumed, complete) = {
                let chunk = self.reader.fill_buf().map_err(|e| {
                    PhyloError::parse(self.offset, format!("I/O error reading newick stream: {e}"))
                })?;
                if chunk.is_empty() {
                    self.done = true;
                    return Ok(Some((start_offset, start_line, false)));
                }
                let (consumed, complete) = match record_end(chunk, &mut trivia) {
                    Some(end) => (end, true),
                    None => (chunk.len(), false),
                };
                let block = &chunk[..consumed];
                // Grow to powers of two: a record straddling two reads
                // must not double a buffer sized exactly to an earlier,
                // shorter record.
                let need = self.buf.len() + block.len();
                if need > self.buf.capacity() {
                    self.buf
                        .reserve_exact(need.next_power_of_two() - self.buf.len());
                }
                self.buf.extend_from_slice(block);
                self.line += newlines(block);
                (consumed, complete)
            };
            self.offset += consumed;
            self.reader.consume(consumed);
            if complete {
                return Ok(Some((start_offset, start_line, true)));
            }
        }
    }
}

impl<R: BufRead> SplitReader for NewickReader<R> {
    /// [`NewickReader::next_tree`]'s records, lexed straight into shapes
    /// with no tree built: the same records are accepted and refused,
    /// with the same errors, rollback and report.
    fn next_shape(
        &mut self,
        taxa: &mut TaxonSet,
        scratch: &mut BipartitionScratch,
        shapes: &mut Shapes,
    ) -> Result<bool, PhyloError> {
        let policy = self.taxa_policy;
        let read = self.next_with(taxa, |text, taxa| {
            scratch.read_newick(text, &mut policy_resolver(taxa, policy), shapes)
        })?;
        Ok(read.is_some())
    }
}

/// The end (one past the `;`) of the record whose scan stands at `trivia`
/// at the start of `bytes`, or `None` if the record runs past them.
fn record_end(bytes: &[u8], trivia: &mut Trivia) -> Option<usize> {
    let mut i = 0;
    while i < bytes.len() {
        if trivia.plain() {
            if let Some(block) = bytes[i..].first_chunk::<{ Trivia::BLOCK }>() {
                if !Trivia::block_stops(block) {
                    i += Trivia::BLOCK;
                    continue;
                }
            }
        }
        let end = (i + Trivia::BLOCK).min(bytes.len());
        for (j, &b) in bytes[i..end].iter().enumerate() {
            if trivia.structural(b) && b == b';' {
                return Some(i + j + 1);
            }
        }
        i = end;
    }
    None
}

/// Newlines in `bytes`, counted a block at a time: each block of
/// [`NEWLINE_BLOCK`] bytes sums its matches in a `u8` lane, which one
/// block cannot overflow, so the loop has no branch per byte.
fn newlines(bytes: &[u8]) -> usize {
    let mut blocks = bytes.chunks_exact(NEWLINE_BLOCK);
    let mut count = 0;
    for block in &mut blocks {
        let lane: u8 = block.iter().map(|&b| u8::from(b == b'\n')).sum();
        count += usize::from(lane);
    }
    count + blocks.remainder().iter().filter(|&&b| b == b'\n').count()
}

/// Bytes [`newlines`] sums in one `u8` lane: at most 255.
const NEWLINE_BLOCK: usize = 128;

/// Read every tree from `reader` into a fresh [`TreeCollection`] under the
/// given policy, returning the collection together with its [`IngestReport`].
pub fn read_collection<R: BufRead>(
    reader: R,
    policy: IngestPolicy,
) -> Result<(TreeCollection, IngestReport), PhyloError> {
    let mut taxa = TaxonSet::new();
    let mut stream = NewickReader::new(reader, TaxaPolicy::Grow, policy);
    let mut trees = Vec::new();
    while let Some(t) = stream.next_tree(&mut taxa)? {
        trees.push(t);
    }
    Ok((TreeCollection { taxa, trees }, stream.into_report()))
}

/// Read every tree from `reader` against an existing namespace.
pub fn read_trees<R: BufRead>(
    reader: R,
    taxa: &mut TaxonSet,
    taxa_policy: TaxaPolicy,
    policy: IngestPolicy,
) -> Result<(Vec<Tree>, IngestReport), PhyloError> {
    let mut stream = NewickReader::new(reader, taxa_policy, policy);
    let mut trees = Vec::new();
    while let Some(t) = stream.next_tree(taxa)? {
        trees.push(t);
    }
    Ok((trees, stream.into_report()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write_newick;

    fn lenient() -> IngestPolicy {
        IngestPolicy::lenient()
    }

    #[test]
    fn clean_input_matches_strict_stream() {
        let data = "((A,B),(C,D));\n((A,C),(B,D)); [note] ((A,D),(B,C));";
        let (coll, report) = read_collection(data.as_bytes(), IngestPolicy::Strict).unwrap();
        assert_eq!(coll.trees.len(), 3);
        assert_eq!(coll.taxa.len(), 4);
        assert_eq!(report.accepted, 3);
        assert!(!report.is_partial());
    }

    #[test]
    fn lenient_skips_malformed_records() {
        let data = "((A,B),(C,D));\n((A,C),(B,D);\n((A,D),(B,C));\n";
        let (coll, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        assert_eq!(coll.trees.len(), 2);
        assert_eq!(report.accepted, 2);
        assert_eq!(report.skipped.len(), 1);
        let skip = &report.skipped[0];
        assert_eq!(skip.record, 1);
        assert_eq!(skip.line, 2);
        assert!(matches!(skip.error, PhyloError::Parse { .. }));
    }

    #[test]
    fn lenient_output_identical_to_precleaned_input() {
        let dirty = "((A,B),(C,D));\n(A,,B);\n((A,C),(B,D));\n(Zed,;\n((A,D),(B,C));\n";
        let clean = "((A,B),(C,D));\n((A,C),(B,D));\n((A,D),(B,C));\n";
        let (dc, dr) = read_collection(dirty.as_bytes(), lenient()).unwrap();
        let (cc, cr) = read_collection(clean.as_bytes(), IngestPolicy::Strict).unwrap();
        assert_eq!(dr.skipped.len(), 2);
        assert!(!cr.is_partial());
        // Namespace rollback makes both runs bit-for-bit identical.
        assert_eq!(dc.taxa.len(), cc.taxa.len());
        let d: Vec<String> = dc.trees.iter().map(|t| write_newick(t, &dc.taxa)).collect();
        let c: Vec<String> = cc.trees.iter().map(|t| write_newick(t, &cc.taxa)).collect();
        assert_eq!(d, c);
    }

    #[test]
    fn skipped_record_rolls_back_interned_taxa() {
        // "Zed" appears only in the broken record and must not survive.
        let data = "((A,B),(C,D));\n(Zed,;\n((A,C),(B,D));\n";
        let (coll, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(coll.taxa.len(), 4);
        assert!(coll.taxa.get("Zed").is_none());
    }

    #[test]
    fn strict_errors_carry_absolute_offsets() {
        let data = "((A,B),(C,D));\n((A,C),(B,D);\n";
        let err = read_collection(data.as_bytes(), IngestPolicy::Strict).unwrap_err();
        let PhyloError::Parse { offset, .. } = err else {
            panic!("expected parse error, got {err:?}");
        };
        // The bad record starts at byte 15; its error offset is inside it.
        assert!(offset >= 15, "offset {offset} should be absolute");
        assert!(offset <= data.len());
    }

    #[test]
    fn error_limit_is_enforced() {
        let data = "(A,;\n(B,;\n(C,;\n(A,B);\n";
        let err =
            read_collection(data.as_bytes(), IngestPolicy::Lenient { max_errors: 2 }).unwrap_err();
        assert_eq!(
            err,
            PhyloError::ErrorLimit {
                errors: 3,
                limit: 2
            }
        );
    }

    #[test]
    fn max_errors_zero_behaves_like_counted_strict() {
        let data = "(A,B);\n(A,;\n";
        let err =
            read_collection(data.as_bytes(), IngestPolicy::Lenient { max_errors: 0 }).unwrap_err();
        assert!(matches!(
            err,
            PhyloError::ErrorLimit {
                errors: 1,
                limit: 0
            }
        ));
    }

    #[test]
    fn unterminated_tail_is_skipped_leniently() {
        let data = "((A,B),(C,D));\n((A,C),(B,D))";
        let (coll, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        assert_eq!(coll.trees.len(), 1);
        assert_eq!(report.skipped.len(), 1);
        assert!(report.skipped[0]
            .error
            .to_string()
            .contains("unterminated tree"));
    }

    #[test]
    fn unterminated_tail_is_strict_error_with_in_bounds_offset() {
        let data = "((A,B),(C,D));\n((A,C),(B,D))";
        let err = read_collection(data.as_bytes(), IngestPolicy::Strict).unwrap_err();
        let PhyloError::Parse { offset, .. } = err else {
            panic!("expected parse error, got {err:?}");
        };
        assert!(offset <= data.len());
    }

    #[test]
    fn semicolons_in_quotes_and_comments_do_not_split() {
        let data = "('a;b',C);[x;y](C,'a;b');";
        let (coll, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        assert_eq!(coll.trees.len(), 2);
        assert_eq!(coll.taxa.len(), 2);
        assert!(!report.is_partial());
    }

    #[test]
    fn line_numbers_are_one_based_and_track_newlines() {
        let data = "(A,B);\n\n\n(C,;\n(A,C);\n";
        let (_, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].line, 4);
    }

    #[test]
    fn newlines_match_a_byte_count_at_every_length() {
        let bytes: Vec<u8> = (0..700u32)
            .map(|i| {
                if i % 3 == 0 || i % 7 == 0 {
                    b'\n'
                } else {
                    b'x'
                }
            })
            .collect();
        for len in 0..bytes.len() {
            let want = bytes[..len].iter().filter(|&&b| b == b'\n').count();
            assert_eq!(newlines(&bytes[..len]), want, "{len}");
        }
        // A block of nothing but newlines fills its lane.
        assert_eq!(newlines(&[b'\n'; 1000]), 1000);
    }

    #[test]
    fn crlf_lines_are_counted_across_refills() {
        // A record of CRLF lines several times longer than an 8 KiB read
        // buffer, then a malformed record: its line and byte must be the
        // ones counted over the whole text.
        let leaves: Vec<String> = (0..4000).map(|i| format!("t{i}")).collect();
        let data = format!(
            "(A,B);\r\n({});\r\n\r\n(t1,\r\n;\r\n(t2,t3);\r\n",
            leaves.join(",\r\n")
        );
        assert!(data.len() > 3 * 8192);
        let reader = std::io::BufReader::with_capacity(8192, data.as_bytes());
        let (coll, report) = read_collection(reader, lenient()).unwrap();
        assert_eq!(coll.trees.len(), 3);
        let [skip] = &report.skipped[..] else {
            panic!("{report:?}");
        };
        let bad = data.find("(t1,").unwrap();
        assert!(skip.byte > bad && skip.byte < data.len(), "{skip}");
        assert_eq!(skip.line, data[..skip.byte].matches('\n').count() + 1);
        assert_eq!(skip.line, 4004);
        let reader = std::io::BufReader::with_capacity(8192, data.as_bytes());
        match read_collection(reader, IngestPolicy::Strict) {
            Err(PhyloError::Parse { offset, .. }) => assert_eq!(offset, skip.byte),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nul_bytes_and_binary_junk_are_survivable() {
        let data = b"((A,B),(C,D));\n\x00\xff\xfe;\n((A,C),(B,D));\n";
        let (coll, report) = read_collection(&data[..], lenient()).unwrap();
        assert_eq!(coll.trees.len(), 2);
        assert_eq!(report.skipped.len(), 1);
    }

    #[test]
    fn report_summary_mentions_counts() {
        let data = "(A,B);\n(A,;\n(A,C);\n";
        let (_, report) = read_collection(data.as_bytes(), lenient()).unwrap();
        let s = report.summary();
        assert!(s.contains("3 records"), "{s}");
        assert!(s.contains("2 accepted"), "{s}");
        assert!(s.contains("1 skipped"), "{s}");
    }

    #[test]
    fn empty_and_whitespace_inputs_yield_nothing() {
        for data in ["", "   \n\t \n"] {
            let (coll, report) = read_collection(data.as_bytes(), lenient()).unwrap();
            assert!(coll.trees.is_empty());
            assert_eq!(report.records(), 0);
        }
    }

    #[test]
    fn require_policy_errors_are_recoverable_too() {
        let mut taxa = TaxonSet::new();
        taxa.intern("A");
        taxa.intern("B");
        let data = "(A,B);\n(A,X);\n(B,A);\n";
        let (trees, report) =
            read_trees(data.as_bytes(), &mut taxa, TaxaPolicy::Require, lenient()).unwrap();
        assert_eq!(trees.len(), 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(
            report.skipped[0].error,
            PhyloError::UnknownTaxon("X".into())
        );
        assert_eq!(taxa.len(), 2);
    }
}
